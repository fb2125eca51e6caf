// Package consensus implements the tertiary analysis of the paper's
// Section 4.2.3 / 5.3.3: calling a consensus sequence from overlapping
// alignments. Two strategies are provided, matching the paper's
// discussion: the conceptually clean but blocking pivot approach
// (expand every alignment into per-position bases, group by position,
// call) and the streaming sliding-window approach that processes
// alignments in ascending position order with bounded state. Their
// results are identical; their cost profiles reproduce the paper's
// finding that the pivot plan "is not practical".
package consensus

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/seq"
)

// AlignedRead is one alignment in reference orientation.
type AlignedRead struct {
	Chrom string
	Pos   int // 0-based start on the chromosome
	Seq   string
	Qual  string // Phred+33, same length as Seq; empty = Phred 30 on every base
}

// posAccumulator collects quality-weighted votes for one position.
type posAccumulator struct {
	score [4]int32 // quality mass per base code
	nMass int32    // quality mass of N calls (counts toward coverage only)
	cover int32
}

func (p *posAccumulator) add(base byte, qual byte) {
	q := int32(qual) - seq.PhredOffset
	if q < 1 {
		q = 1
	}
	if code, ok := seq.CodeOf(base); ok {
		p.score[code] += q
	} else {
		p.nMass += q
	}
	p.cover++
}

// call picks the consensus base of the position.
func (p *posAccumulator) call() (byte, seq.Quality) { return callScores(&p.score) }

// callScores picks the consensus base from the quality mass per base code:
// the base with the largest mass; its quality is the margin over the
// runner-up (the standard consensus confidence), clamped to the Phred
// range. Uncovered or all-N positions call 'N'.
func callScores(score *[4]int32) (byte, seq.Quality) {
	// Two pairs, each ordered, then the pairs against each other: the
	// winner is the first of the largest masses, the runner-up the largest
	// of the other three. Written as selects, not branches: which base wins
	// a position is as good as random to a branch predictor.
	s0, s1, s2, s3 := score[0], score[1], score[2], score[3]
	hi1, lo1, hi2, lo2 := max(s0, s1), min(s0, s1), max(s2, s3), min(s2, s3)
	i1, i2 := 0, 2
	if s1 > s0 {
		i1 = 1
	}
	if s3 > s2 {
		i2 = 3
	}
	best, top := i1, max(hi1, hi2)
	if hi2 > hi1 {
		best = i2
	}
	if top == 0 {
		return 'N', 0
	}
	second := max(min(hi1, hi2), lo1, lo2)
	return seq.SymbolOf(byte(best)), seq.Quality(min(top-second, seq.MaxQuality))
}

// BaseAccumulator is the exported per-position accumulator behind the
// CallBase user-defined aggregate: bases are added with their qualities,
// partial accumulators merge (the UDA parallelization contract), and Call
// produces the consensus base with its confidence.
type BaseAccumulator struct {
	acc posAccumulator
}

// Add votes one base observation.
func (b *BaseAccumulator) Add(base, qual byte) { b.acc.add(base, qual) }

// Merge combines another accumulator into this one.
func (b *BaseAccumulator) Merge(o *BaseAccumulator) {
	for c := 0; c < 4; c++ {
		b.acc.score[c] += o.acc.score[c]
	}
	b.acc.nMass += o.acc.nMass
	b.acc.cover += o.acc.cover
}

// Empty reports whether no observation was added.
func (b *BaseAccumulator) Empty() bool { return b.acc.cover == 0 }

// Call produces the consensus base and its confidence.
func (b *BaseAccumulator) Call() (byte, seq.Quality) { return b.acc.call() }

// CallBase is the paper's CallBase(base, qual) building block: it
// aggregates the bases aligned to one position into the consensus call.
func CallBase(bases []byte, quals []byte) (byte, seq.Quality) {
	var acc posAccumulator
	for i := range bases {
		q := byte(seq.PhredOffset + missingQual)
		if i < len(quals) {
			q = quals[i]
		}
		acc.add(bases[i], q)
	}
	return acc.call()
}

// Result is the consensus for one chromosome.
type Result struct {
	Chrom string
	// Seq holds the called bases over [Start, Start+len(Seq)); positions
	// without coverage inside the span are 'N'.
	Start int
	Seq   []byte
	Quals []seq.Quality
}

// --- Pivot strategy ---

// pivotEntry is one (chrom, pos, base, qual) tuple of the huge
// intermediate result the pivot plan materializes.
type pivotEntry struct {
	chrom int32
	pos   int32
	base  byte
	qual  byte
}

// CallPivot implements Query 3's conceptually clean plan: pivot every
// alignment into per-base tuples, group by (chromosome, position), call
// each group, then assemble. It materializes len(read) tuples per
// alignment — the blocking, disk-heavy intermediate the paper calls out.
func CallPivot(reads []AlignedRead) ([]Result, error) {
	chromIdx := map[string]int32{}
	var chromNames []string
	var tuples []pivotEntry
	for _, r := range reads {
		if len(r.Qual) != len(r.Seq) && len(r.Qual) != 0 {
			return nil, fmt.Errorf("consensus: read at %s:%d has qual length %d != seq %d",
				r.Chrom, r.Pos, len(r.Qual), len(r.Seq))
		}
		ci, ok := chromIdx[r.Chrom]
		if !ok {
			ci = int32(len(chromNames))
			chromIdx[r.Chrom] = ci
			chromNames = append(chromNames, r.Chrom)
		}
		for i := 0; i < len(r.Seq); i++ {
			qual := byte(seq.PhredOffset + missingQual) // a read without qualities
			if r.Qual != "" {
				qual = r.Qual[i]
			}
			tuples = append(tuples, pivotEntry{chrom: ci, pos: int32(r.Pos + i), base: r.Seq[i], qual: qual})
		}
	}
	// Group by (chrom, pos): sort the intermediate (the pivot plan's
	// blocking sort), then aggregate runs.
	sort.Slice(tuples, func(a, b int) bool {
		if tuples[a].chrom != tuples[b].chrom {
			return tuples[a].chrom < tuples[b].chrom
		}
		return tuples[a].pos < tuples[b].pos
	})
	var out []Result
	var cur *Result
	var acc posAccumulator
	var curChrom int32 = -1
	var curPos int32 = -1
	flush := func() {
		if cur == nil || curPos < 0 {
			return
		}
		b, q := acc.call()
		// Fill any uncovered gap since the previous called position.
		want := cur.Start + len(cur.Seq)
		for int32(want) < curPos {
			cur.Seq = append(cur.Seq, 'N')
			cur.Quals = append(cur.Quals, 0)
			want++
		}
		cur.Seq = append(cur.Seq, b)
		cur.Quals = append(cur.Quals, q)
		acc = posAccumulator{}
	}
	for _, t := range tuples {
		if t.chrom != curChrom {
			flush()
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &Result{Chrom: chromNames[t.chrom], Start: int(t.pos)}
			curChrom, curPos = t.chrom, t.pos
		} else if t.pos != curPos {
			flush()
			curPos = t.pos
		}
		acc.add(t.base, t.qual)
	}
	flush()
	if cur != nil {
		out = append(out, *cur)
	}
	return out, nil
}

// --- Sliding-window strategy ---

// SlidingCaller consumes alignments in ascending (chrom, pos) order and
// emits consensus with memory bounded by the maximum read length — the
// paper's proposed AssembleConsensus UDA ("a sliding window processing
// technique ... scan over the alignments in order of their starting
// position").
//
// The window is a ring of per-position vote counters whose length is a
// power of two: positions below the newest read's start are called and
// leave at the head, the read's bases vote into the slots after it, and
// nothing is re-sliced or reallocated unless a read is longer than the
// ring. Every slot outside the window is zero.
type SlidingCaller struct {
	quals    bool // results carry per-position qualities
	curChrom string
	cur      *Result
	out      []Result
	start    int        // reference position of ring[head]
	ring     [][4]int32 // quality mass per base code
	head, n  int        // the window is ring[head], ..., n slots, wrapping
	lastPos  int
}

// NewSlidingCaller returns an empty caller whose results carry the called
// bases and their qualities.
func NewSlidingCaller() *SlidingCaller { return &SlidingCaller{quals: true} }

// NewSequenceCaller returns an empty caller whose results carry the called
// bases only (Result.Quals stays nil), for consumers that assemble the
// sequence and never read a confidence.
func NewSequenceCaller() *SlidingCaller { return &SlidingCaller{} }

// baseCode maps a symbol to its 2-bit code, noCode for everything but
// A, C, G, T in either case (seq.CodeOf, as a table).
var baseCode = func() (t [256]uint8) {
	for i := range t {
		t[i] = noCode
		if c, ok := seq.CodeOf(byte(i)); ok {
			t[i] = c
		}
	}
	return t
}()

const noCode = 4

// missingQual is the Phred score of a base whose read came without
// qualities, as in CallBase.
const missingQual = 30

// Add consumes one alignment. Alignments must arrive sorted by
// (chromosome, position); out-of-order input is an error. A read without
// qualities (empty Qual) votes with Phred 30 on every base.
func (s *SlidingCaller) Add(r AlignedRead) error {
	if len(r.Qual) != len(r.Seq) && len(r.Qual) != 0 {
		return fmt.Errorf("consensus: qual length %d != seq length %d at %s", len(r.Qual), len(r.Seq), where(r.Chrom, r.Pos))
	}
	if len(r.Seq) == 0 {
		return nil // covers no position
	}
	if s.cur == nil || r.Chrom != s.curChrom {
		if s.cur != nil && r.Chrom < s.curChrom {
			return fmt.Errorf("consensus: chromosome %q after %q; input must be sorted", r.Chrom, s.curChrom)
		}
		s.flushAll()
		s.curChrom = r.Chrom
		s.start = r.Pos
		s.cur = &Result{Chrom: r.Chrom, Start: r.Pos}
		s.lastPos = r.Pos
	}
	if r.Pos < s.lastPos {
		return fmt.Errorf("consensus: position %d after %d; input must be sorted", r.Pos, s.lastPos)
	}
	s.lastPos = r.Pos
	// Positions before r.Pos are final: no later read can cover them. After
	// this the window starts at r.Pos.
	s.flushBefore(r.Pos)
	if len(r.Seq) > len(s.ring) {
		s.grow(len(r.Seq))
	}
	if len(r.Seq) > s.n {
		s.n = len(r.Seq)
	}
	// The read's slots are ring[head:] and, past the end, ring[:...].
	first := len(s.ring) - s.head
	if first > len(r.Seq) {
		first = len(r.Seq)
	}
	if len(r.Qual) == 0 {
		vote(s.ring[s.head:], r.Seq[:first], "")
		vote(s.ring, r.Seq[first:], "")
	} else {
		vote(s.ring[s.head:], r.Seq[:first], r.Qual[:first])
		vote(s.ring, r.Seq[first:], r.Qual[first:])
	}
	return nil
}

// where names a read's place for an error message; a caller fed one
// unnamed chromosome (the UDA, whose group the executor names) has only
// the position.
func where(chrom string, pos int) string {
	if chrom == "" {
		return fmt.Sprintf("position %d", pos)
	}
	return fmt.Sprintf("%s:%d", chrom, pos)
}

// vote adds bases[i] with quality quals[i] to slots[i]; empty quals means
// missingQual throughout. N and any other non-base symbol count for
// nothing: an all-N position calls 'N' either way.
func vote(slots [][4]int32, bases, quals string) {
	slots = slots[:len(bases)]
	if quals == "" {
		for i := range slots {
			if c := baseCode[bases[i]]; c != noCode {
				slots[i][c] += missingQual
			}
		}
		return
	}
	quals = quals[:len(bases)]
	for i := range slots {
		if c := baseCode[bases[i]]; c != noCode {
			slots[i][c] += max(int32(quals[i])-seq.PhredOffset, 1)
		}
	}
}

// grow replaces the ring by one of the next power of two holding n slots,
// with the window moved to its front.
func (s *SlidingCaller) grow(n int) {
	size := 64
	for size < n {
		size <<= 1
	}
	ring := make([][4]int32, size)
	for i := 0; i < s.n; i++ {
		ring[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
	}
	s.ring, s.head = ring, 0
}

// callHead calls the window's first k positions into the result and
// clears their slots.
func (s *SlidingCaller) callHead(k int) {
	if k <= 0 {
		return
	}
	at := s.reserve(k)
	first := min(k, len(s.ring)-s.head) // the slots up to the ring's end, then the wrapped ones
	s.call(s.ring[s.head:s.head+first], at)
	s.call(s.ring[:k-first], at+first)
	s.head = (s.head + k) & (len(s.ring) - 1)
	s.n -= k
	s.start += k
}

// call writes the calls of slots to the result from index at on, and
// zeroes them.
func (s *SlidingCaller) call(slots [][4]int32, at int) {
	bases := s.cur.Seq[at : at+len(slots)]
	var quals []seq.Quality
	if s.quals {
		quals = s.cur.Quals[at : at+len(slots)]
	}
	for i := range slots {
		b, q := callScores(&slots[i])
		slots[i] = [4]int32{}
		bases[i] = b
		if quals != nil {
			quals[i] = q
		}
	}
}

// reserve extends the result by k positions, zeroed, and returns the index
// of the first. A full buffer doubles, so a chromosome's result is copied
// once on average however long it gets.
func (s *SlidingCaller) reserve(k int) int {
	at := len(s.cur.Seq)
	s.cur.Seq = extend(s.cur.Seq, k)
	if s.quals {
		s.cur.Quals = extend(s.cur.Quals, k)
	}
	return at
}

// extend lengthens buf by k zero elements (nothing is ever written past a
// buffer's length, so the spare capacity is still as allocated).
func extend[T any](buf []T, k int) []T {
	if cap(buf)-len(buf) < k {
		buf = slices.Grow(buf, max(k, len(buf)))
	}
	return buf[:len(buf)+k]
}

// flushBefore finalizes window positions below pos.
func (s *SlidingCaller) flushBefore(pos int) {
	k := pos - s.start
	if k <= 0 {
		return
	}
	if k > s.n {
		k = s.n
	}
	s.callHead(k)
	// An uncovered gap up to pos: N placeholders, so coordinates stay dense
	// within the result span.
	if gap := pos - s.start; gap > 0 {
		at := s.reserve(gap)
		for i := range s.cur.Seq[at:] {
			s.cur.Seq[at+i] = 'N'
		}
		s.start = pos
	}
}

func (s *SlidingCaller) flushAll() {
	if s.cur == nil {
		return
	}
	s.callHead(s.n)
	s.out = append(s.out, *s.cur)
	s.cur = nil
}

// Finish flushes remaining state and returns per-chromosome results.
func (s *SlidingCaller) Finish() []Result {
	s.flushAll()
	out := s.out
	s.out = nil
	return out
}

// WindowSize exposes the current window length (tests assert bounded
// state).
func (s *SlidingCaller) WindowSize() int { return s.n }

// SNP is one difference between consensus and reference.
type SNP struct {
	Chrom   string
	Pos     int
	RefBase byte
	AltBase byte
	Quality seq.Quality
}

// FindSNPs compares consensus results against the reference, reporting
// confident differences (quality >= minQuality, excluding N calls) — the
// paper's "looks for variations between individual genomes (single
// nucleotide polymorphisms)".
func FindSNPs(results []Result, ref map[string]string, minQuality seq.Quality) []SNP {
	var out []SNP
	for _, res := range results {
		refSeq, ok := ref[res.Chrom]
		if !ok {
			continue
		}
		for i, b := range res.Seq {
			pos := res.Start + i
			if pos >= len(refSeq) || b == 'N' {
				continue
			}
			if res.Quals[i] < minQuality {
				continue
			}
			if refSeq[pos] != b {
				out = append(out, SNP{
					Chrom: res.Chrom, Pos: pos,
					RefBase: refSeq[pos], AltBase: b,
					Quality: res.Quals[i],
				})
			}
		}
	}
	return out
}
