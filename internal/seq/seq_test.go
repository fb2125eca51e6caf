package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodeOfRoundTrip(t *testing.T) {
	for _, b := range []byte("ACGT") {
		code, ok := CodeOf(b)
		if !ok {
			t.Fatalf("CodeOf(%q) not ok", b)
		}
		if got := SymbolOf(code); got != b {
			t.Errorf("SymbolOf(CodeOf(%q)) = %q", b, got)
		}
	}
	for _, b := range []byte("acgt") {
		code, ok := CodeOf(b)
		if !ok {
			t.Fatalf("CodeOf(%q) not ok", b)
		}
		if got := SymbolOf(code); got != b-'a'+'A' {
			t.Errorf("SymbolOf(CodeOf(%q)) = %q, want uppercase", b, got)
		}
	}
	if _, ok := CodeOf('N'); ok {
		t.Error("CodeOf('N') should not be ok")
	}
	if _, ok := CodeOf('X'); ok {
		t.Error("CodeOf('X') should not be ok")
	}
}

func TestIsValid(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"", true},
		{"ACGT", true},
		{"acgtn", true},
		{"ACGTN", true},
		{"ACGU", false},
		{"AC GT", false},
		{"123", false},
	}
	for _, c := range cases {
		if got := IsValid(c.s); got != c.want {
			t.Errorf("IsValid(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestHasN(t *testing.T) {
	if HasN("ACGT") {
		t.Error("HasN(ACGT) = true")
	}
	if !HasN("ACNGT") {
		t.Error("HasN(ACNGT) = false")
	}
	if !HasN("nAC") {
		t.Error("HasN(nAC) = false")
	}
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindrome
		{"AACC", "GGTT"},
		{"ACGTN", "NACGT"},
		{"GATTACA", "TGTAATC"},
	}
	for _, c := range cases {
		if got := ReverseComplement(c.in); got != c.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := randomSeqFrom(raw, "ACGT")
		return ReverseComplement(ReverseComplement(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCContent(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"", 0},
		{"NNN", 0},
		{"GGCC", 1},
		{"AATT", 0},
		{"ACGT", 0.5},
		{"GCNA", 2.0 / 3.0},
	}
	for _, c := range cases {
		if got := GCContent(c.s); got != c.want {
			t.Errorf("GCContent(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestHamming(t *testing.T) {
	if d := Hamming("ACGT", "ACGT"); d != 0 {
		t.Errorf("Hamming equal = %d", d)
	}
	if d := Hamming("ACGT", "ACGA"); d != 1 {
		t.Errorf("Hamming 1-mismatch = %d", d)
	}
	if d := Hamming("AAAA", "TTTT"); d != 4 {
		t.Errorf("Hamming all-mismatch = %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("Hamming on unequal lengths did not panic")
		}
	}()
	Hamming("A", "AA")
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []string{"", "A", "ACGT", "ACGTN", "NNNN", "GATTACA",
		strings.Repeat("ACGTN", 50)}
	for _, s := range cases {
		p, err := Pack(s)
		if err != nil {
			t.Fatalf("Pack(%q): %v", s, err)
		}
		if p.Len() != len(s) {
			t.Errorf("Pack(%q).Len() = %d", s, p.Len())
		}
		if got := p.Unpack(); got != s {
			t.Errorf("Unpack(Pack(%q)) = %q", s, got)
		}
	}
}

func TestPackRejectsBadSymbol(t *testing.T) {
	if _, err := Pack("ACGU"); err == nil {
		t.Error("Pack(ACGU) did not fail")
	}
}

func TestPackedBase(t *testing.T) {
	s := "ACGTNACGT"
	p, err := Pack(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(s); i++ {
		if got := p.Base(i); got != s[i] {
			t.Errorf("Base(%d) = %q, want %q", i, got, s[i])
		}
	}
}

func TestPackedEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		s := randomSeqFrom(raw, "ACGTN")
		p, err := Pack(s)
		if err != nil {
			return false
		}
		q, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return q.Unpack() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p, err := Pack(strings.Repeat("ACGT", 16))
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestPackedSizeIsQuarter(t *testing.T) {
	// The paper remarks bit-encoding reduces storage to about a quarter.
	n := 100
	sz := PackedSize(n, 0)
	if sz > n/3 {
		t.Errorf("PackedSize(%d) = %d, not ~n/4", n, sz)
	}
}

func TestQualityRoundTrip(t *testing.T) {
	qs := []Quality{0, 1, 2, 10, 40, 93}
	enc := EncodeQualities(qs)
	dec, err := DecodeQualities(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(qs) {
		t.Fatalf("len = %d", len(dec))
	}
	for i := range qs {
		if dec[i] != qs[i] {
			t.Errorf("q[%d] = %d, want %d", i, dec[i], qs[i])
		}
	}
}

func TestQualityClamp(t *testing.T) {
	enc := EncodeQualities([]Quality{200})
	if enc[0] != MaxQuality+PhredOffset {
		t.Errorf("over-range quality encoded as %d", enc[0])
	}
}

func TestDecodeQualitiesRejectsOutOfRange(t *testing.T) {
	if _, err := DecodeQualities("\x1f"); err == nil {
		t.Error("DecodeQualities accepted char below offset")
	}
}

func TestErrorProbability(t *testing.T) {
	if p := Quality(10).ErrorProbability(); p < 0.099 || p > 0.101 {
		t.Errorf("Q10 prob = %v, want ~0.1", p)
	}
	if p := Quality(30).ErrorProbability(); p < 0.00099 || p > 0.00101 {
		t.Errorf("Q30 prob = %v, want ~0.001", p)
	}
}

func TestQualityFromProbability(t *testing.T) {
	if q := QualityFromProbability(0.1); q != 10 {
		t.Errorf("Q(0.1) = %d, want 10", q)
	}
	if q := QualityFromProbability(0); q != MaxQuality {
		t.Errorf("Q(0) = %d, want max", q)
	}
	if q := QualityFromProbability(1); q != 0 {
		t.Errorf("Q(1) = %d, want 0", q)
	}
}

func TestQualityProbabilityInverse(t *testing.T) {
	for q := Quality(0); q <= 60; q++ {
		if got := QualityFromProbability(q.ErrorProbability()); got != q {
			t.Errorf("round trip of Q%d = Q%d", q, got)
		}
	}
}

func TestAverageQuality(t *testing.T) {
	enc := EncodeQualities([]Quality{10, 20, 30})
	if avg := AverageQuality(enc); avg != 20 {
		t.Errorf("AverageQuality = %v, want 20", avg)
	}
	if avg := AverageQuality(""); avg != 0 {
		t.Errorf("AverageQuality(empty) = %v", avg)
	}
}

// randomSeqFrom maps arbitrary fuzz bytes onto the given alphabet so that
// quick.Check explores sequence space rather than rejecting inputs.
func randomSeqFrom(raw []byte, alphabet string) string {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = alphabet[int(b)%len(alphabet)]
	}
	return string(out)
}

func BenchmarkPack36bp(b *testing.B) {
	s := randomReadForBench(36)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if _, err := Pack(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack36bp(b *testing.B) {
	p, _ := Pack(randomReadForBench(36))
	for i := 0; i < b.N; i++ {
		_ = p.Unpack()
	}
}

func randomReadForBench(n int) string {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = Alphabet[rng.Intn(4)]
	}
	return string(buf)
}

func TestDecodeRejectsImpossibleLength(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1<<64 - 1, 1 << 40, 9} {
		b := appendUvarint(nil, n)
		b = append(b, 0, 0xAB) // no exceptions, one payload byte
		if _, err := Decode(b); err == nil {
			t.Errorf("length %d over 2 bytes decoded", n)
		}
	}
}

// TestIndexNMatchesUnpack: IndexN reads the exception list as Unpack
// writes it, and refuses every encoding Decode refuses with its error.
func TestIndexNMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = "ACGTNn"[rng.Intn(6)]
		}
		p, err := Pack(string(b))
		if err != nil {
			t.Fatal(err)
		}
		enc, text := p.Encode(), p.Unpack()
		for from := 0; from <= len(b)+1; from++ {
			want := -1
			if from <= len(text) {
				if k := strings.IndexByte(text[from:], 'N'); k >= 0 {
					want = from + k
				}
			}
			if got, err := IndexN(enc, from); err != nil || got != want {
				t.Fatalf("IndexN(%q, %d) = %d, %v; want %d", text, from, got, err, want)
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			_, derr := Decode(enc[:cut])
			_, ierr := IndexN(enc[:cut], 0)
			if (derr == nil) != (ierr == nil) || derr != nil && derr.Error() != ierr.Error() {
				t.Fatalf("%q cut at %d: Decode error %v, IndexN error %v", text, cut, derr, ierr)
			}
		}
	}
	bad := append(appendUvarint(nil, 4), 1, 9, 0) // an exception past the end
	if _, err := IndexN(bad, 0); err == nil {
		t.Error("IndexN accepted an exception beyond the sequence end")
	}
}
