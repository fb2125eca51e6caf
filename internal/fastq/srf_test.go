package fastq

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func sampleSRF(n int, seed int64) []SRFRecord {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SRFRecord, n)
	for i := range out {
		ln := rng.Intn(30) + 6
		seqB := make([]byte, ln)
		qualB := make([]byte, ln)
		intens := make([][4]uint16, ln)
		for j := 0; j < ln; j++ {
			seqB[j] = "ACGTN"[rng.Intn(5)]
			qualB[j] = byte(33 + rng.Intn(40))
			for c := 0; c < 4; c++ {
				intens[j][c] = uint16(rng.Intn(2000))
			}
		}
		out[i] = SRFRecord{
			Name:        itoa(i) + ":read",
			Seq:         string(seqB),
			Qual:        string(qualB),
			Intensities: intens,
		}
	}
	return out
}

func TestSRFRoundTrip(t *testing.T) {
	recs := sampleSRF(50, 1)
	var buf bytes.Buffer
	if err := WriteSRF(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSRF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records", len(got))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d mismatched", i)
		}
	}
}

func TestSRFEmptyContainer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSRF(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSRF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("%d records from empty container", len(got))
	}
	// Streaming over an empty container yields no entries cleanly.
	var rec SRFRecord
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(buf.Bytes())), SRFRecordEntry(&rec), 16)
	if sc.MoveNext() {
		t.Error("entry from empty container")
	}
	if sc.Err() != nil {
		t.Error(sc.Err())
	}
}

func TestSRFChunkedStreamingMatchesReadSRF(t *testing.T) {
	recs := sampleSRF(120, 2)
	var buf bytes.Buffer
	if err := WriteSRF(&buf, recs); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{32, 256, 1 << 20} {
		var rec SRFRecord
		sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(buf.Bytes())), SRFRecordEntry(&rec), chunk)
		i := 0
		for sc.MoveNext() {
			if rec.Name != recs[i].Name || rec.Seq != recs[i].Seq {
				t.Fatalf("chunk %d: record %d mismatched", chunk, i)
			}
			if !reflect.DeepEqual(rec.Intensities, recs[i].Intensities) {
				t.Fatalf("chunk %d: record %d intensities mismatched", chunk, i)
			}
			i++
		}
		if sc.Err() != nil {
			t.Fatalf("chunk %d: %v", chunk, sc.Err())
		}
		if i != len(recs) {
			t.Fatalf("chunk %d: scanned %d of %d", chunk, i, len(recs))
		}
	}
}

func TestSRFErrors(t *testing.T) {
	if _, err := ReadSRF(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	recs := sampleSRF(3, 3)
	var buf bytes.Buffer
	WriteSRF(&buf, recs)
	data := buf.Bytes()
	// Truncations must be detected by both readers, a cut right after the
	// header (a container that declares records and holds none) too.
	for _, cut := range []int{len(data) - 1, len(data) / 2, 7, 5} {
		if _, err := ReadSRF(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("ReadSRF accepted truncation at %d", cut)
		}
		if _, err := srfScan(data[:cut], 64); err == nil {
			t.Errorf("scanner accepted truncation at %d", cut)
		}
	}
	// Trailing garbage after the declared count: both readers reject it.
	trailing := append(append([]byte{}, data...), 0xFF)
	if _, err := ReadSRF(bytes.NewReader(trailing)); err == nil {
		t.Error("ReadSRF accepted trailing garbage")
	}
	if _, err := srfScan(trailing, 64); err == nil {
		t.Error("scanner accepted trailing garbage")
	}
}

// srfScan decodes data with the chunked scanner at the given chunk size.
func srfScan(data []byte, chunk int) ([]SRFRecord, error) {
	var out []SRFRecord
	var rec SRFRecord
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), SRFRecordEntry(&rec), chunk)
	for sc.MoveNext() {
		out = append(out, rec)
	}
	return out, sc.Err()
}

// hostileSRF are containers that declare a length of 2^64-1: as the
// record count, as a name length and as a sequence length.
var hostileSRF = [][]byte{
	[]byte("SRF1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
	[]byte("SRF1\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
	[]byte("SRF1\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
}

func TestSRFHostileLengths(t *testing.T) {
	for i, data := range hostileSRF {
		if _, err := ReadSRF(bytes.NewReader(data)); err == nil {
			t.Errorf("input %d: ReadSRF accepted it", i)
		}
		for _, chunk := range []int{8, 0} {
			if _, err := srfScan(data, chunk); err == nil {
				t.Errorf("input %d: the scanner at chunk %d accepted it", i, chunk)
			}
		}
	}
}

// FuzzSRFDecode: on any bytes each SRF decoder returns records or an
// error, never a panic, and the two agree: the whole-container ReadSRF
// and the chunked scanner paging through 16-byte chunks.
func FuzzSRFDecode(f *testing.F) {
	var buf bytes.Buffer
	WriteSRF(&buf, sampleSRF(3, 4))
	f.Add(buf.Bytes())
	f.Add([]byte(SRFMagic + "\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := ReadSRF(bytes.NewReader(data))
		got, err := srfScan(data, 16)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadSRF error %v, scanner error %v", wantErr, err)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %d records, ReadSRF %d, and they differ", len(got), len(want))
		}
	})
}

func TestSRFValidate(t *testing.T) {
	bad := []SRFRecord{
		{Name: "", Seq: "AC", Qual: "II"},
		{Name: "r", Seq: "AC", Qual: "I"},
		{Name: "r", Seq: "AC", Qual: "II", Intensities: make([][4]uint16, 3)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	var buf bytes.Buffer
	if err := WriteSRF(&buf, bad[:1]); err == nil {
		t.Error("WriteSRF accepted invalid record")
	}
}

func TestSRFAvgIntensity(t *testing.T) {
	rec := SRFRecord{
		Name: "r", Seq: "AC", Qual: "II",
		Intensities: [][4]uint16{{1000, 100, 100, 100}, {100, 2000, 100, 100}},
	}
	if got := rec.AvgIntensity(); got != 1.5 {
		t.Errorf("AvgIntensity = %v, want 1.5", got)
	}
	empty := SRFRecord{Name: "r", Seq: "", Qual: ""}
	if empty.AvgIntensity() != 0 {
		t.Error("empty record intensity != 0")
	}
}
