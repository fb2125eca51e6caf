package consensus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func q(n int) string { return string(rune(seq.PhredOffset + n)) }

func TestCallBaseMajority(t *testing.T) {
	b, qual := CallBase([]byte("AAAT"), []byte(strings.Repeat(q(30), 4)))
	if b != 'A' {
		t.Errorf("called %c", b)
	}
	if qual == 0 {
		t.Error("confident call with quality 0")
	}
}

func TestCallBaseQualityWeighted(t *testing.T) {
	// One high-quality G outvotes two low-quality As.
	b, _ := CallBase([]byte("AAG"), []byte(q(2)+q(2)+q(40)))
	if b != 'G' {
		t.Errorf("called %c, want G (quality-weighted)", b)
	}
}

func TestCallBaseAllN(t *testing.T) {
	b, qual := CallBase([]byte("NN"), []byte(q(30)+q(30)))
	if b != 'N' || qual != 0 {
		t.Errorf("called %c q%d", b, qual)
	}
}

func simpleReads() []AlignedRead {
	//            0123456789
	// ref-ish:   ACGTACGTAC
	return []AlignedRead{
		{Chrom: "chr1", Pos: 0, Seq: "ACGTA", Qual: strings.Repeat(q(30), 5)},
		{Chrom: "chr1", Pos: 2, Seq: "GTACG", Qual: strings.Repeat(q(30), 5)},
		{Chrom: "chr1", Pos: 5, Seq: "CGTAC", Qual: strings.Repeat(q(30), 5)},
	}
}

func TestSlidingCallerBasic(t *testing.T) {
	c := NewSlidingCaller()
	for _, r := range simpleReads() {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	res := c.Finish()
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	if string(res[0].Seq) != "ACGTACGTAC" {
		t.Errorf("consensus = %s", res[0].Seq)
	}
	if res[0].Start != 0 || res[0].Chrom != "chr1" {
		t.Errorf("span = %+v", res[0])
	}
}

func TestPivotMatchesSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := genRef(rng, 2000)
	reads := sampleReads(rng, ref, 400, 36, 0.01)
	sortReads(reads)

	pivot, err := CallPivot(reads)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSlidingCaller()
	for _, r := range reads {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	sliding := c.Finish()
	if len(pivot) != len(sliding) {
		t.Fatalf("pivot %d results, sliding %d", len(pivot), len(sliding))
	}
	for i := range pivot {
		if pivot[i].Chrom != sliding[i].Chrom || pivot[i].Start != sliding[i].Start {
			t.Fatalf("span %d: %+v vs %+v", i, pivot[i], sliding[i])
		}
		if string(pivot[i].Seq) != string(sliding[i].Seq) {
			t.Fatalf("result %d sequences differ", i)
		}
		for j := range pivot[i].Quals {
			if pivot[i].Quals[j] != sliding[i].Quals[j] {
				t.Fatalf("result %d quality %d differs", i, j)
			}
		}
	}
}

func TestPivotMatchesSlidingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := genRef(rng, 300)
		reads := sampleReads(rng, ref, 60, 12, 0.05)
		sortReads(reads)
		pivot, err := CallPivot(reads)
		if err != nil {
			return false
		}
		c := NewSlidingCaller()
		for _, r := range reads {
			if err := c.Add(r); err != nil {
				return false
			}
		}
		sliding := c.Finish()
		if len(pivot) != len(sliding) {
			return false
		}
		for i := range pivot {
			if string(pivot[i].Seq) != string(sliding[i].Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSlidingWindowBounded(t *testing.T) {
	// The whole point of the sliding window: state stays ~read-length even
	// over long chromosomes (vs the pivot's full materialization).
	rng := rand.New(rand.NewSource(5))
	ref := genRef(rng, 50_000)
	reads := sampleReads(rng, ref, 5000, 36, 0)
	sortReads(reads)
	c := NewSlidingCaller()
	maxWindow := 0
	for _, r := range reads {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
		if w := c.WindowSize(); w > maxWindow {
			maxWindow = w
		}
	}
	c.Finish()
	if maxWindow > 3*36 {
		t.Errorf("window grew to %d positions; not bounded by read length", maxWindow)
	}
}

// TestSlidingWindowWithinLongestRead: the window never holds more
// positions than the longest read seen so far, and the ring behind it is
// that length rounded up to a power of two (64 at least) — it grows for a
// longer read and for nothing else.
func TestSlidingWindowWithinLongestRead(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := genRef(rng, 30_000)
	var reads []AlignedRead
	for _, readLen := range []int{36, 36, 100, 36, 300} {
		reads = append(reads, sampleReads(rng, ref, 800, readLen, 0.01)...)
	}
	sortReads(reads)
	c := NewSlidingCaller()
	longest := 0
	for _, r := range reads {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, len(r.Seq))
		pow2 := 64
		for pow2 < longest {
			pow2 <<= 1
		}
		if w := c.WindowSize(); w > longest || len(c.ring) != pow2 {
			t.Fatalf("after a read of %d at %d: window %d, ring %d; longest read so far %d (ring want %d)",
				len(r.Seq), r.Pos, w, len(c.ring), longest, pow2)
		}
	}
}

// fuzzReads turns fuzzer bytes into reads sorted by (chromosome,
// position): per read a position step (steps past the previous read leave
// a gap), a length up to 255 (past the 64-slot ring it has to grow), a
// flag byte (next chromosome, no qualities) and one byte per base giving
// the symbol — bases of either case, N, and a symbol that is no base —
// and its quality.
func fuzzReads(data []byte) []AlignedRead {
	const symbols = "ACGTNacgtn*"
	var reads []AlignedRead
	chrom, pos := 0, 0
	for len(data) >= 3 {
		step, ln, flags := int(data[0]), int(data[1]), data[2]
		data = data[3:]
		if ln > len(data) {
			ln = len(data)
		}
		if flags&0x80 != 0 {
			chrom++
			pos = 0
		}
		pos += step % 80
		bases, quals := make([]byte, ln), make([]byte, ln)
		for i, b := range data[:ln] {
			bases[i] = symbols[int(b)%len(symbols)]
			quals[i] = seq.PhredOffset - 2 + b%70 // from below Phred 1 to past MaxQuality's margin
		}
		data = data[ln:]
		r := AlignedRead{Chrom: fmt.Sprintf("c%05d", chrom), Pos: pos, Seq: string(bases)}
		if flags&0x40 == 0 {
			r.Qual = string(quals)
		}
		reads = append(reads, r)
	}
	return reads
}

// FuzzSlidingCaller: on any sorted input the sliding window calls what the
// pivot calls — spans, bases and qualities.
func FuzzSlidingCaller(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x05\x00ACGTA\x02\x05\x00GTACG\x03\x05\x00CGTAC"))
	f.Add([]byte("\x05\x04\x00AAAA\x0a\x04\x40CCCC\x00\x02\x80GG"))
	rng := rand.New(rand.NewSource(3))
	long := []byte{0, 200, 0}
	for i := 0; i < 200; i++ {
		long = append(long, byte(rng.Intn(256)))
	}
	f.Add(append(long, long...))
	f.Fuzz(func(t *testing.T, data []byte) {
		reads := fuzzReads(data)
		want, err := CallPivot(reads)
		if err != nil {
			t.Fatal(err)
		}
		c := NewSlidingCaller()
		for _, r := range reads {
			if err := c.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		got := c.Finish()
		if len(got) != len(want) {
			t.Fatalf("%d spans, the pivot has %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Chrom != w.Chrom || g.Start != w.Start || string(g.Seq) != string(w.Seq) {
				t.Fatalf("span %d: %s:%d %q, the pivot has %s:%d %q", i, g.Chrom, g.Start, g.Seq, w.Chrom, w.Start, w.Seq)
			}
			if len(g.Quals) != len(w.Quals) {
				t.Fatalf("span %d: %d qualities, the pivot has %d", i, len(g.Quals), len(w.Quals))
			}
			for j := range w.Quals {
				if g.Quals[j] != w.Quals[j] {
					t.Fatalf("span %d quality %d: %d, the pivot has %d", i, j, g.Quals[j], w.Quals[j])
				}
			}
		}
		// Sequence-only results are the same bases without qualities.
		sc := NewSequenceCaller()
		for _, r := range reads {
			if err := sc.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range sc.Finish() {
			if string(r.Seq) != string(want[i].Seq) || r.Quals != nil {
				t.Fatalf("sequence caller span %d: %q with %d qualities, want %q with none", i, r.Seq, len(r.Quals), want[i].Seq)
			}
		}
	})
}

func TestSlidingCallerRejectsUnsorted(t *testing.T) {
	c := NewSlidingCaller()
	c.Add(AlignedRead{Chrom: "chr1", Pos: 100, Seq: "ACGT", Qual: "IIII"})
	if err := c.Add(AlignedRead{Chrom: "chr1", Pos: 50, Seq: "ACGT", Qual: "IIII"}); err == nil {
		t.Error("out-of-order position accepted")
	}
	c2 := NewSlidingCaller()
	c2.Add(AlignedRead{Chrom: "chr2", Pos: 1, Seq: "AC", Qual: "II"})
	if err := c2.Add(AlignedRead{Chrom: "chr1", Pos: 1, Seq: "AC", Qual: "II"}); err == nil {
		t.Error("out-of-order chromosome accepted")
	}
}

func TestSlidingCallerGap(t *testing.T) {
	c := NewSlidingCaller()
	c.Add(AlignedRead{Chrom: "chr1", Pos: 0, Seq: "AAAA", Qual: strings.Repeat(q(30), 4)})
	c.Add(AlignedRead{Chrom: "chr1", Pos: 10, Seq: "CCCC", Qual: strings.Repeat(q(30), 4)})
	res := c.Finish()
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	if string(res[0].Seq) != "AAAANNNNNNCCCC" {
		t.Errorf("gapped consensus = %s", res[0].Seq)
	}
}

func TestMultipleChromosomes(t *testing.T) {
	c := NewSlidingCaller()
	c.Add(AlignedRead{Chrom: "chr1", Pos: 5, Seq: "AA", Qual: q(30) + q(30)})
	c.Add(AlignedRead{Chrom: "chr2", Pos: 0, Seq: "GG", Qual: q(30) + q(30)})
	res := c.Finish()
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Chrom != "chr1" || res[0].Start != 5 || string(res[0].Seq) != "AA" {
		t.Errorf("chr1 = %+v", res[0])
	}
	if res[1].Chrom != "chr2" || string(res[1].Seq) != "GG" {
		t.Errorf("chr2 = %+v", res[1])
	}
}

func TestFindSNPs(t *testing.T) {
	ref := map[string]string{"chr1": "AAAAAAAAAA"}
	results := []Result{{
		Chrom: "chr1", Start: 2,
		Seq:   []byte("AAGAN"),
		Quals: []seq.Quality{40, 40, 40, 2, 0},
	}}
	snps := FindSNPs(results, ref, 20)
	if len(snps) != 1 {
		t.Fatalf("snps = %+v", snps)
	}
	s := snps[0]
	if s.Pos != 4 || s.RefBase != 'A' || s.AltBase != 'G' || s.Quality != 40 {
		t.Errorf("snp = %+v", s)
	}
}

func TestEndToEndSNPRecovery(t *testing.T) {
	// Plant SNPs in an individual genome, sample reads, and verify that
	// consensus calling recovers them (the 1000 Genomes tertiary phase).
	rng := rand.New(rand.NewSource(33))
	ref := genRef(rng, 10_000)
	individual := []byte(ref)
	planted := map[int]byte{}
	for i := 0; i < 20; i++ {
		pos := 100 + i*450
		old := individual[pos]
		var alt byte
		for {
			alt = "ACGT"[rng.Intn(4)]
			if alt != old {
				break
			}
		}
		individual[pos] = alt
		planted[pos] = alt
	}
	reads := sampleReads(rng, string(individual), 4000, 36, 0.005)
	sortReads(reads)
	c := NewSlidingCaller()
	for _, r := range reads {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	snps := FindSNPs(c.Finish(), map[string]string{"chr1": ref}, 25)
	found := 0
	for _, s := range snps {
		if alt, ok := planted[s.Pos]; ok && alt == s.AltBase {
			found++
		} else {
			t.Errorf("false positive SNP at %d (%c->%c q%d)", s.Pos, s.RefBase, s.AltBase, s.Quality)
		}
	}
	if found < 15 {
		t.Errorf("recovered only %d/20 planted SNPs", found)
	}
}

// --- helpers ---

func genRef(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[rng.Intn(4)]
	}
	return string(b)
}

// sampleReads samples error-prone reads from a reference (single "chr1").
func sampleReads(rng *rand.Rand, ref string, n, readLen int, errRate float64) []AlignedRead {
	var out []AlignedRead
	for i := 0; i < n; i++ {
		pos := rng.Intn(len(ref) - readLen)
		s := []byte(ref[pos : pos+readLen])
		qual := make([]byte, readLen)
		for j := range s {
			qual[j] = byte(seq.PhredOffset + 25 + rng.Intn(15))
			if rng.Float64() < errRate {
				s[j] = "ACGT"[rng.Intn(4)]
				qual[j] = byte(seq.PhredOffset + 2 + rng.Intn(10))
			}
		}
		out = append(out, AlignedRead{Chrom: "chr1", Pos: pos, Seq: string(s), Qual: string(qual)})
	}
	return out
}

func sortReads(reads []AlignedRead) {
	sort.Slice(reads, func(a, b int) bool {
		if reads[a].Chrom != reads[b].Chrom {
			return reads[a].Chrom < reads[b].Chrom
		}
		return reads[a].Pos < reads[b].Pos
	})
}
