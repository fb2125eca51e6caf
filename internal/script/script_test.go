package script

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/fastq"
)

func TestBinUniqueReadsMatchesExpectation(t *testing.T) {
	var in bytes.Buffer
	w := fastq.NewWriter(&in)
	for _, s := range []string{"ACGT", "ACGT", "GGGG", "ACNT", "ACGT"} {
		w.Write(fastq.Record{Name: "r", Seq: s, Qual: strings.Repeat("I", len(s))})
	}
	w.Flush()

	// The interpreted script walks the file with CHARINDEX and SUBSTRING;
	// it must bin exactly as the compiled one does.
	for name, bin := range map[string]func(io.Reader, io.Writer) (Trace, int, error){
		"compiled":    BinUniqueReads,
		"interpreted": BinUniqueReadsInterpreted,
	} {
		var out bytes.Buffer
		trace, n, err := bin(bytes.NewReader(in.Bytes()), &out)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Errorf("%s: unique tags = %d", name, n)
		}
		if len(trace.Phases) != 3 {
			t.Fatalf("%s: phases = %+v", name, trace.Phases)
		}
		for i, want := range []string{"read", "process", "write"} {
			if trace.Phases[i].Name != want {
				t.Errorf("%s: phase %d = %s", name, i, trace.Phases[i].Name)
			}
		}
		tags, err := fastq.ReadTags(&out)
		if err != nil {
			t.Fatal(err)
		}
		if len(tags) != 2 || tags[0].Seq != "ACGT" || tags[0].Frequency != 3 || tags[1].Seq != "GGGG" || tags[1].Frequency != 1 {
			t.Errorf("%s: tags = %+v", name, tags)
		}
		if trace.Total <= 0 {
			t.Errorf("%s: total duration not recorded", name)
		}
		if trace.String() == "" {
			t.Errorf("%s: empty trace string", name)
		}
	}
}

func TestExpressionScript(t *testing.T) {
	var aligns bytes.Buffer
	fastq.WriteAlignments(&aligns, []fastq.AlignmentRecord{
		{ReadName: "t1", RefName: "chr1", Pos: 10, Strand: '+', MapQ: 60, Seq: "AAAA", Qual: "IIII"},
		{ReadName: "t2", RefName: "chr1", Pos: 12, Strand: '+', MapQ: 60, Seq: "CCCC", Qual: "IIII"},
	})
	var tags bytes.Buffer
	fastq.WriteTags(&tags, []fastq.TagRecord{{Seq: "AAAA", Frequency: 7}, {Seq: "CCCC", Frequency: 3}})

	var out bytes.Buffer
	_, n, err := ExpressionScript(&aligns, &tags, &out, func(ref string, pos int64) (string, bool) {
		return "G1", true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("genes = %d", n)
	}
	recs, _ := fastq.ReadExpression(&out)
	if recs[0].Gene != "G1" || recs[0].TotalFrequency != 10 || recs[0].TagCount != 2 {
		t.Errorf("rec = %+v", recs[0])
	}
}
