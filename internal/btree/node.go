package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// Node page layout (8 KB pages from package storage):
//
//	[0]     type: nodeLeaf or nodeInternal
//	[1]     unused
//	[2:4]   count  (number of live slots)
//	[4:6]   usedEnd (offset of free space start; begins at nodeHeaderSize)
//	[6:8]   unused
//	[8:16]  leaf: right-sibling page id (+1, 0 = none)
//	        internal: leftmost child page id
//	...     entries, appended at usedEnd
//	end     slot directory growing downward: u16 entry offsets
//
// Leaf entry:     uvarint klen | key | uvarint vlen | value
// Internal entry: uvarint klen | key | 8-byte child page id
// An internal entry's child holds keys >= its key; keys below the first
// entry go to the leftmost child.
const (
	nodeLeaf     = 2
	nodeInternal = 3

	nodeHeaderSize = 16
)

type node struct {
	data []byte // the full page image
}

func (n node) typ() byte      { return n.data[0] }
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n.data[2:])) }
func (n node) usedEnd() int   { return int(binary.LittleEndian.Uint16(n.data[4:])) }
func (n node) aux() int64     { return int64(binary.LittleEndian.Uint64(n.data[8:])) }
func (n node) setCount(c int) { binary.LittleEndian.PutUint16(n.data[2:], uint16(c)) }
func (n node) setUsedEnd(u int) {
	binary.LittleEndian.PutUint16(n.data[4:], uint16(u))
}
func (n node) setAux(v int64) { binary.LittleEndian.PutUint64(n.data[8:], uint64(v)) }

// initNode formats a page image as an empty node.
func initNode(data []byte, typ byte, aux int64) node {
	for i := range data[:nodeHeaderSize] {
		data[i] = 0
	}
	n := node{data}
	data[0] = typ
	n.setUsedEnd(nodeHeaderSize)
	n.setAux(aux)
	return n
}

// slot returns the entry offset of slot i.
func (n node) slot(i int) int {
	return int(binary.LittleEndian.Uint16(n.data[storage.PageSize-2*(i+1):]))
}

func (n node) setSlot(i, off int) {
	binary.LittleEndian.PutUint16(n.data[storage.PageSize-2*(i+1):], uint16(off))
}

// key returns the key of slot i (a view into the page).
func (n node) key(i int) []byte {
	off := n.slot(i)
	klen, m := binary.Uvarint(n.data[off:])
	return n.data[off+m : off+m+int(klen)]
}

// leafValue returns the value of leaf slot i (a view into the page).
func (n node) leafValue(i int) []byte {
	start, end := n.valueSpan(i)
	return n.data[start:end]
}

// checkLeaf checks a leaf read from disk before anything slices it: its
// type, its slot count, and every slot's entry — offset, key length and
// value length — against the page, so that key and leafValue stay in
// bounds on every slot. It appends where each slot's value starts and ends
// on the page to spans.
func (n node) checkLeaf(spans []int) ([]int, error) {
	cnt, used := n.count(), n.usedEnd()
	if n.typ() != nodeLeaf || used < nodeHeaderSize || used+2*cnt > storage.PageSize {
		return nil, fmt.Errorf("btree: leaf of type %d with %d slots over %d bytes: %w", n.typ(), cnt, used, storage.ErrCorruptPage)
	}
	spans = slices.Grow(spans, 2*cnt)
	for i := 0; i < cnt; i++ {
		off := n.slot(i)
		ok := off >= nodeHeaderSize && off < used
		if ok {
			klen, m := binary.Uvarint(n.data[off:used])
			ok = m > 0 && klen <= uint64(used-off-m)
			off += m + int(klen)
		}
		if ok {
			vlen, m := binary.Uvarint(n.data[off:used])
			ok = m > 0 && vlen <= uint64(used-off-m)
			spans = append(spans, off+m, off+m+int(vlen))
		}
		if !ok {
			return nil, fmt.Errorf("btree: leaf slot %d runs past the page: %w", i, storage.ErrCorruptPage)
		}
	}
	return spans, nil
}

// valueSpan returns where the value of leaf slot i starts and ends on the
// page.
func (n node) valueSpan(i int) (start, end int) {
	off := n.slot(i)
	klen, m := binary.Uvarint(n.data[off:])
	off += m + int(klen)
	vlen, m2 := binary.Uvarint(n.data[off:])
	return off + m2, off + m2 + int(vlen)
}

// packValues copies the values at spans (page offsets, start and end
// pairs) end to end into a new payload, and returns it with the offset at
// which each value ends in it, written over the front of spans.
func (n node) packValues(spans []int) ([]byte, []int) {
	size := 0
	for k := 0; k < len(spans); k += 2 {
		size += spans[k+1] - spans[k]
	}
	payload := make([]byte, 0, size)
	for k := 0; k < len(spans); k += 2 {
		payload = append(payload, n.data[spans[k]:spans[k+1]]...)
		spans[k/2] = len(payload)
	}
	return payload, spans[:len(spans)/2]
}

// child returns the child page id of internal slot i.
func (n node) child(i int) int64 {
	off := n.slot(i)
	klen, m := binary.Uvarint(n.data[off:])
	off += m + int(klen)
	return int64(binary.LittleEndian.Uint64(n.data[off:]))
}

// search finds the first slot with key >= k; found reports an exact match.
func (n node) search(k []byte) (pos int, found bool) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		c := bytes.Compare(n.key(mid), k)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// route returns the child page to descend into for key k, and the key of
// the next slot, below which every key of that child sorts (nil: the
// child is the last).
func (n node) route(k []byte) (child int64, next []byte) {
	pos, found := n.search(k)
	if !found {
		pos-- // the slot below k; -1 is the leftmost child
	}
	child = n.aux()
	if pos >= 0 {
		child = n.child(pos)
	}
	if pos+1 < n.count() {
		next = n.key(pos + 1)
	}
	return child, next
}

// freeSpace returns the bytes available for a new entry plus its slot.
func (n node) freeSpace() int {
	return storage.PageSize - 2*(n.count()+1) - n.usedEnd()
}

// liveBytes returns the payload bytes referenced by live slots.
func (n node) liveBytes() int {
	total := 0
	for i := 0; i < n.count(); i++ {
		total += n.entryLen(i)
	}
	return total
}

func (n node) entryLen(i int) int {
	off := n.slot(i)
	klen, m := binary.Uvarint(n.data[off:])
	l := m + int(klen)
	if n.typ() == nodeLeaf {
		vlen, m2 := binary.Uvarint(n.data[off+l:])
		l += m2 + int(vlen)
	} else {
		l += 8
	}
	return l
}

// appendEntry writes an entry at usedEnd and inserts a slot at pos.
// The caller must have verified free space.
func (n node) appendEntry(pos int, entry []byte) {
	off := n.usedEnd()
	copy(n.data[off:], entry)
	n.setUsedEnd(off + len(entry))
	cnt := n.count()
	// Shift slots [pos, cnt) down by one position (slots grow downward, so
	// lower-index slots sit at higher addresses).
	for i := cnt; i > pos; i-- {
		n.setSlot(i, n.slot(i-1))
	}
	n.setSlot(pos, off)
	n.setCount(cnt + 1)
}

// removeSlot deletes slot pos, leaving the entry bytes dead.
func (n node) removeSlot(pos int) {
	cnt := n.count()
	for i := pos; i < cnt-1; i++ {
		n.setSlot(i, n.slot(i+1))
	}
	n.setCount(cnt - 1)
}

// encodeLeafEntry renders a leaf entry.
func encodeLeafEntry(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// encodeInternalEntry renders an internal entry.
func encodeInternalEntry(dst, key []byte, child int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(child))
	return append(dst, b[:]...)
}

// entryPair is a decoded entry used during compaction and splits.
type entryPair struct {
	key []byte
	val []byte // leaf value, or 8-byte child id image for internals
}

// decodeEntries extracts live entries in slot order (copying them out of
// the page).
func (n node) decodeEntries() []entryPair {
	out := make([]entryPair, n.count())
	for i := 0; i < n.count(); i++ {
		out[i].key = append([]byte(nil), n.key(i)...)
		if n.typ() == nodeLeaf {
			out[i].val = append([]byte(nil), n.leafValue(i)...)
		} else {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(n.child(i)))
			out[i].val = b[:]
		}
	}
	return out
}

// rebuild formats the page from entries, preserving type and aux.
func (n node) rebuild(entries []entryPair) error {
	typ, aux := n.typ(), n.aux()
	initNode(n.data, typ, aux)
	for i, e := range entries {
		var entry []byte
		if typ == nodeLeaf {
			entry = encodeLeafEntry(nil, e.key, e.val)
		} else {
			entry = encodeInternalEntry(nil, e.key, int64(binary.LittleEndian.Uint64(e.val)))
		}
		if len(entry)+2 > n.freeSpace() {
			return fmt.Errorf("btree: rebuild overflow at entry %d", i)
		}
		n.appendEntry(i, entry)
	}
	return nil
}
