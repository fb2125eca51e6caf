package lanes

import "testing"

func TestBuildDGEShape(t *testing.T) {
	ds, err := BuildDGE(4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) != 4000 {
		t.Fatalf("%d reads", len(ds.Reads))
	}
	// DGE property: tags repeat heavily, so unique tags << reads.
	if len(ds.Tags) >= len(ds.Reads)/2 {
		t.Errorf("%d unique tags from %d reads: not repetitive", len(ds.Tags), len(ds.Reads))
	}
	if len(ds.Alignments) == 0 || len(ds.Expression) == 0 {
		t.Error("missing alignments or expression results")
	}
	if len(ds.ReadsFASTQ) == 0 {
		t.Error("missing FASTQ rendering")
	}
}

func TestBuild1000GShape(t *testing.T) {
	ds, err := Build1000G(3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) != 3000 {
		t.Fatalf("%d reads", len(ds.Reads))
	}
	// Re-sequencing property: almost all reads unique.
	uniq := map[string]bool{}
	for _, r := range ds.Reads {
		uniq[r.Seq] = true
	}
	if float64(len(uniq)) < 0.9*float64(len(ds.Reads)) {
		t.Errorf("only %d/%d unique reads", len(uniq), len(ds.Reads))
	}
	if float64(len(ds.Alignments)) < 0.8*float64(len(ds.Reads)) {
		t.Errorf("only %d/%d reads aligned", len(ds.Alignments), len(ds.Reads))
	}
}
