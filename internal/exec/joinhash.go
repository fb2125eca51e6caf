package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The one hash table under the hash join and GROUP BY. A key hashes once,
// to 64 bits (keyHasher), and everything the operators need comes from
// that value: the Bloom filter's block and bits, the partition (partLedger)
// and the table slot (keyTable). The hash is a function of the key's
// query-level value, not of the vector it arrived in, and agrees with the
// encoded-key equality of appendValueKey: an INT column, a dictionary
// column, a boxed row-source column and an integral FLOAT holding the same
// number all hash alike, so the two sides of a join may arrive in any mix
// of forms. Keys that hash alike are still compared. The join's build side
// is a keyTable plus its stored columns, linked once after the build; the
// aggregate's groups are a keyTable that links each group as it comes.

const (
	hashMul       = 0x9E3779B97F4A7C15
	hashSeedStr   = 0x243F6A8885A308D3
	hashSeedBytes = 0x13198A2E03707344
	hashSeedFloat = 0xA4093822299F31D0
	hashNaN       = 0x082EFA98EC4E6C89
)

// mix64 is the 64-bit finalizer of MurmurHash3.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

func hashInt(i int64) uint64 { return mix64(uint64(i)) }

// hashFloat hashes integral floats as the integer they equal (the
// encoded-key rule of appendFloatKey) and every NaN alike.
func hashFloat(f float64) uint64 {
	if f == float64(int64(f)) {
		return hashInt(int64(f))
	}
	if f != f {
		return hashNaN
	}
	return mix64(math.Float64bits(f) ^ hashSeedFloat)
}

// hashText hashes a string or byte slice eight bytes at a time.
func hashText[T string | []byte](seed uint64, s T) uint64 {
	h := seed ^ uint64(len(s))*hashMul
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (bits.RotateLeft64(h, 23) ^ w) * hashMul
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix64(h ^ w)
}

// hashValue hashes a boxed non-NULL key value.
func hashValue(v sqltypes.Value) uint64 {
	switch v.K {
	case sqltypes.KindInt, sqltypes.KindBool:
		return hashInt(v.I)
	case sqltypes.KindFloat:
		return hashFloat(v.F)
	case sqltypes.KindString:
		return hashText(hashSeedStr, v.S)
	}
	return hashText(hashSeedBytes, v.B)
}

// combineHash folds the hash of a further key column into h.
func combineHash(h, col uint64) uint64 {
	return (bits.RotateLeft64(h, 5) ^ col) * hashMul
}

// hashNull is the hash of a NULL key. Only GROUP BY hashes one: it is a
// group like any other; a join drops NULL keys before hashing.
const hashNull = 0x452821E638D01377

// hashKeyColumn hashes column v at the given physical rows into h — h[k]
// belongs to rows[k]; the first key column sets it, later ones fold in —
// and returns the column in the form keys are compared and stored in:
// flat, typed where every value has one kind, sequences unpacked to their
// text, defined at the hashed rows only, with a null bit on every NULL
// row. A flat typed column is returned as it is; a dictionary column
// hashes (and unpacks) each distinct entry once.
func hashKeyColumn(v *vec.Vector, rows []int, h []uint64, first bool) (*vec.Vector, error) {
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	set := func(k int, x uint64) {
		if first {
			h[k] = x
		} else {
			h[k] = combineHash(h[k], x)
		}
	}
	switch {
	case v.Codes != nil && v.Dict.Len() > 0:
		return hashDictColumn(v, rows, set)
	case v.Codes != nil || v.Vals != nil || v.Packed:
		var err error
		if v, err = boxedKeys(v, rows); err != nil {
			return nil, err
		}
	}
	// An array has an entry under a null bit too: the loops run over every
	// row, then the NULL rows are hashed over.
	var before []uint64
	if v.Nulls != nil && !first {
		before = append(before, h...)
	}
	switch {
	case v.Ints != nil:
		for k, r := range rows {
			set(k, hashInt(v.Ints[r]))
		}
	case v.Floats != nil:
		for k, r := range rows {
			set(k, hashFloat(v.Floats[r]))
		}
	case v.Offs != nil:
		seed := uint64(hashSeedStr)
		if v.Kind == sqltypes.KindBytes {
			seed = hashSeedBytes
		}
		for k, r := range rows {
			set(k, hashText(seed, v.Bytes(r)))
		}
	case v.Vals != nil: // values of more than one kind
		for k, r := range rows {
			set(k, hashValue(v.Vals[r]))
		}
	default: // no array at all: a column of NULLs
		for k := range rows {
			set(k, hashNull)
		}
	}
	if v.Nulls != nil {
		for k, r := range rows {
			if !v.IsNull(r) {
				continue
			}
			if first {
				h[k] = hashNull
			} else {
				h[k] = combineHash(before[k], hashNull)
			}
		}
	}
	return v, nil
}

// hashDictColumn hashes a dictionary column: its dictionary in key form
// once, entry by entry, then each row by its code. The key form is the
// dictionary's key form gathered by code.
func hashDictColumn(v *vec.Vector, rows []int, set func(int, uint64)) (*vec.Vector, error) {
	dict := *v.Dict
	dict.Packed = v.Packed
	all := make([]int, dict.Len())
	for i := range all {
		all[i] = i
	}
	hashes := make([]uint64, len(all))
	keys, err := hashKeyColumn(&dict, all, hashes, true)
	if err != nil {
		return nil, err
	}
	at := make([]int, v.Len())
	for k, r := range rows {
		if v.IsNull(r) {
			set(k, hashNull)
			continue
		}
		c := v.Codes[r]
		if c < 0 || int(c) >= len(hashes) {
			return nil, fmt.Errorf("exec: dictionary code %d out of range (%d entries)", c, len(hashes))
		}
		set(k, hashes[c])
		at[r] = int(c)
	}
	out, err := keys.Gather(at)
	if err == nil && v.Nulls != nil {
		for r := range at {
			if v.IsNull(r) {
				out.SetNull(r)
			}
		}
	}
	return out, err
}

// boxedKeys returns column v in key form, every row boxed (a packed
// sequence unpacked): typed when the values at the given rows all have one
// kind, generic otherwise, with a null bit on every NULL.
func boxedKeys(v *vec.Vector, rows []int) (*vec.Vector, error) {
	kind, mixed := sqltypes.KindString, false // a packed sequence is text
	if v.Vals != nil {
		kind = sqltypes.KindNull
		for _, r := range rows {
			switch k := v.Vals[r].K; {
			case v.IsNull(r):
			case kind == sqltypes.KindNull:
				kind = k
			case kind != k:
				mixed = true
			}
		}
	}
	if mixed {
		kind = sqltypes.KindNull
	}
	out := vec.NewVector(kind, v.Len())
	for r := range v.Len() {
		val, err := v.Value(r)
		if err != nil {
			return nil, err
		}
		out.Append(val)
	}
	return out, nil
}

// keysEqual compares the key in row i of columns a with the key in row j
// of columns b, both in the form hashKeyColumn returns (or a column grown
// from one by AppendRows): typed when both sides hold a column in the same
// typed array, otherwise on the group-key encoding (appendValueKey) of
// both values — the encoding the hash agrees with, so mixed-kind and boxed
// columns match exactly the rows the typed path would. Two NULLs are equal
// (GROUP BY; joined keys are never NULL). buf is scratch.
func keysEqual(a []*vec.Vector, i int, b []*vec.Vector, j int, buf *[2][]byte) (bool, error) {
	for c, x := range a {
		y := b[c]
		if xn, yn := x.IsNull(i), y.IsNull(j); xn || yn {
			if xn != yn {
				return false, nil
			}
			continue
		}
		switch {
		case x.Ints != nil && y.Ints != nil:
			if x.Ints[i] != y.Ints[j] {
				return false, nil
			}
		case x.Offs != nil && y.Offs != nil && x.Kind == y.Kind && x.Packed == y.Packed:
			if !bytes.Equal(x.Bytes(i), y.Bytes(j)) {
				return false, nil
			}
		case x == y && x.Codes != nil && x.Codes[i] == y.Codes[j]:
			// one dictionary, one entry
		default:
			var err error
			if buf[0], err = encodedKey(buf[0], x, i); err == nil {
				buf[1], err = encodedKey(buf[1], y, j)
			}
			if err != nil {
				return false, err
			}
			if !bytes.Equal(buf[0], buf[1]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// encodedKey renders row i of a key column in the group-key encoding.
func encodedKey(buf []byte, col *vec.Vector, i int) ([]byte, error) {
	v, err := col.Value(i)
	if err != nil {
		return buf, err
	}
	return appendValueKey(buf[:0], v)
}

// vectorRowBytes approximates the memory row i of the columns retains,
// from the lengths of the vector entries that hold it.
func vectorRowBytes(cols []*vec.Vector, i int) int64 {
	var n int64
	for _, v := range cols {
		switch {
		case v.Offs != nil:
			n += 8 + int64(len(v.Bytes(i)))
		case v.Vals != nil:
			n += 64 + int64(len(v.Vals[i].S)+len(v.Vals[i].B))
		default:
			n += 8
		}
	}
	return n
}

// keyHasher evaluates a batch's key expressions and hashes the keys of the
// rows asked for. Its slices are scratch, valid until the next call.
type keyHasher struct {
	proj   *expr.Projection
	cols   []*vec.Vector // the batch's key columns; in key form once hashed
	hashes []uint64
}

// eval evaluates the key columns of b into cols.
func (kh *keyHasher) eval(b *vec.Batch) (err error) {
	kh.cols, err = kh.proj.Eval(b)
	return err
}

// hash hashes the keys at the given physical rows, a NULL like any other
// value, and puts cols in key form: hashes[k] belongs to rows[k].
func (kh *keyHasher) hash(rows []int) ([]uint64, error) {
	if cap(kh.hashes) < len(rows) {
		kh.hashes = make([]uint64, max(len(rows), vec.DefaultBatchSize))
	}
	hashes := kh.hashes[:len(rows)]
	for i, c := range kh.cols {
		var err error
		if kh.cols[i], err = hashKeyColumn(c, rows, hashes, i == 0); err != nil {
			return nil, err
		}
	}
	return hashes, nil
}

// keyTable is the chained hash table. Entry i's key is row i of keys, in
// key form, and its hash is hashes[i]; heads[hash&mask] starts a chain
// through next of the entries sharing that slot.
type keyTable struct {
	keys   []*vec.Vector
	hashes []uint64
	heads  []int32
	next   []int32 // the entries from len(next) on are in no chain yet
	mask   uint64
}

func newKeyTable(nkeys int) keyTable {
	t := keyTable{keys: make([]*vec.Vector, nkeys)}
	for i := range t.keys {
		t.keys[i] = &vec.Vector{}
	}
	return t
}

// add appends the keys at the given rows of cols, with their hashes, as
// entries in no chain yet.
func (t *keyTable) add(cols []*vec.Vector, rows []int, hashes []uint64) error {
	for i, c := range cols {
		if err := t.keys[i].AppendRows(c, rows); err != nil {
			return err
		}
	}
	t.hashes = append(t.hashes, hashes...)
	return nil
}

// link chains the entries in no chain yet. Slots stay at most half full
// (so next, sized with them, never grows): past that, link doubles them
// and chains every entry afresh, back to front, so a table linked in one
// go has its chains in insertion order.
func (t *keyTable) link() {
	n, from := len(t.hashes), len(t.next)
	if 2*n > len(t.heads) {
		size := 64
		for size < 2*n {
			size <<= 1
		}
		t.mask = uint64(size - 1)
		t.heads = make([]int32, size)
		for i := range t.heads {
			t.heads[i] = -1
		}
		t.next, from = make([]int32, 0, size/2), 0
	}
	t.next = t.next[:n]
	for i := n - 1; i >= from; i-- {
		slot := t.hashes[i] & t.mask
		t.next[i] = t.heads[slot]
		t.heads[slot] = int32(i)
	}
}

// chainStart says a chain walk has not entered its chain yet.
const chainStart = -2

// find returns the first entry from e on (chainStart: the head of h's
// slot) whose hash is h and whose key equals row r of cols, or -1. buf is
// the caller's scratch: the join's probe workers share one table.
func (t *keyTable) find(e int32, h uint64, cols []*vec.Vector, r int, buf *[2][]byte) (int32, error) {
	if e == chainStart {
		if len(t.heads) == 0 {
			return -1, nil
		}
		e = t.heads[h&t.mask]
	}
	for ; e >= 0; e = t.next[e] {
		if t.hashes[e] != h {
			continue
		}
		if eq, err := keysEqual(cols, r, t.keys, int(e), buf); err != nil {
			return -1, err
		} else if eq {
			return e, nil
		}
	}
	return -1, nil
}

// compact keeps only the given entries (ascending), and those rows of the
// columns stored beside the keys. The table must not be linked yet.
func (t *keyTable) compact(keep []int, beside []*vec.Vector) error {
	for i, r := range keep {
		t.hashes[i] = t.hashes[r]
	}
	t.hashes = t.hashes[:len(keep)]
	for _, set := range [2][]*vec.Vector{t.keys, beside} {
		for i, v := range set {
			g, err := v.Gather(keep)
			if err != nil {
				return err
			}
			set[i] = g
		}
	}
	return nil
}

// entryBytes approximates the memory entry i retains: its key cells, its
// hash, its chain link and the given number of head slots.
func (t *keyTable) entryBytes(i, slots int) int64 {
	return 8 + 4 + 4*int64(slots) + vectorRowBytes(t.keys, i)
}

// SpillPartitions is the default hash fan-out of a spilling join or
// aggregate: at the default 64 MB budgets one recursion re-runs any spilled
// partition. maxSpillDepth is how many times a partition is re-partitioned
// before it runs with no budget (one giant key no hash can subdivide).
const (
	SpillPartitions = 32
	maxSpillDepth   = 4
)

// partLedger is one operator's spill bookkeeping at one recursion level;
// once written, it is read (route, parts[p].out) by concurrent workers.
type partLedger struct {
	level  int
	budget int64 // 0 = unlimited
	parts  []ledgerPart
	total  int64 // resident bytes of all partitions
	nOut   int
}

type ledgerPart struct {
	bytes int64 // resident
	out   bool  // its new rows go to disk
}

func newPartLedger(parts, level int, budget int64) partLedger {
	if parts < 1 {
		parts = SpillPartitions
	}
	return partLedger{level: level, budget: budget, parts: make([]ledgerPart, parts)}
}

// route maps a key hash onto a partition. The level salts the remix so
// that the rows of a spilled partition spread over all partitions again
// one level down, and so that the choice shares no bits with the Bloom
// filter's or the table's use of h.
func (l *partLedger) route(h uint64) int {
	x := mix64(h ^ uint64(l.level+1)*hashMul)
	return int((x >> 32) * uint64(len(l.parts)) >> 32)
}

// charge adds n resident bytes to partition p.
func (l *partLedger) charge(p int, n int64) {
	l.parts[p].bytes += n
	l.total += n
}

// victim is the partition to send out next while the resident bytes
// exceed a set budget: the largest still resident, the first on a tie; -1
// within the budget or when all are out.
func (l *partLedger) victim() int {
	v := -1
	if l.budget <= 0 || l.total <= l.budget {
		return v
	}
	for i, p := range l.parts {
		if !p.out && (v < 0 || p.bytes > l.parts[v].bytes) {
			v = i
		}
	}
	return v
}

// markOut records that partition p is out; freed, that its resident bytes
// left with it (a join's evicted rows), not stayed (an aggregate's states).
func (l *partLedger) markOut(p int, freed bool) {
	l.parts[p].out = true
	l.nOut++
	if freed {
		l.total -= l.parts[p].bytes
		l.parts[p].bytes = 0
	}
}

// subBudget is the budget of a spilled partition's re-run one level down:
// none past maxSpillDepth.
func (l *partLedger) subBudget() int64 {
	if l.level+1 >= maxSpillDepth {
		return 0
	}
	return l.budget
}
