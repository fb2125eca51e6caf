package seq

import (
	"errors"
	"fmt"
)

// Packed is the 2-bit packed sequence representation — the paper's proposed
// genomic sequence UDT ("a bit-encoding of the sequences could reduce the
// size to just about a quarter", Section 5.1.2). Four bases are stored per
// byte; uncertain 'N' calls are kept in a sparse exception list so that the
// common all-called case costs exactly ceil(n/4) bytes plus a small header.
//
// The wire encoding produced by Encode is:
//
//	varint  length in bases
//	varint  number of N exceptions
//	varint* N positions (delta encoded)
//	bytes   packed 2-bit payload, little-endian within the byte
type Packed struct {
	n      int      // length in bases
	data   []byte   // ceil(n/4) bytes, 2 bits per base
	nified []uint32 // sorted positions that are 'N'
}

// ErrBadSymbol is returned by Pack for symbols outside A/C/G/T/N.
var ErrBadSymbol = errors.New("seq: symbol outside ACGTN alphabet")

// Pack converts a textual sequence into the packed representation.
func Pack(s string) (Packed, error) {
	p := Packed{n: len(s), data: make([]byte, (len(s)+3)/4)}
	for i := 0; i < len(s); i++ {
		code, ok := CodeOf(s[i])
		if !ok {
			if s[i] != 'N' && s[i] != 'n' {
				return Packed{}, fmt.Errorf("%w: %q at position %d", ErrBadSymbol, s[i], i)
			}
			p.nified = append(p.nified, uint32(i))
			code = BaseA // placeholder bits under the exception
		}
		p.data[i>>2] |= code << uint((i&3)*2)
	}
	return p, nil
}

// Len returns the sequence length in bases.
func (p Packed) Len() int { return p.n }

// Base returns the symbol at position i.
func (p Packed) Base(i int) byte {
	if i < 0 || i >= p.n {
		panic("seq: Packed.Base out of range")
	}
	for _, x := range p.nified {
		if int(x) == i {
			return 'N'
		}
		if int(x) > i {
			break
		}
	}
	return SymbolOf(p.data[i>>2] >> uint((i&3)*2))
}

// Unpack reconstructs the textual sequence.
func (p Packed) Unpack() string {
	out := make([]byte, p.n)
	for i := 0; i < p.n; i++ {
		out[i] = SymbolOf(p.data[i>>2] >> uint((i&3)*2))
	}
	for _, x := range p.nified {
		out[x] = 'N'
	}
	return string(out)
}

// Encode serializes the packed sequence; see the type comment for layout.
func (p Packed) Encode() []byte {
	buf := make([]byte, 0, 2*binaryMaxVarint+len(p.nified)*binaryMaxVarint+len(p.data))
	buf = appendUvarint(buf, uint64(p.n))
	buf = appendUvarint(buf, uint64(len(p.nified)))
	prev := uint32(0)
	for _, x := range p.nified {
		buf = appendUvarint(buf, uint64(x-prev))
		prev = x
	}
	return append(buf, p.data...)
}

// Decode is the inverse of Encode.
func Decode(b []byte) (Packed, error) {
	n, nn, exc, payload, err := layout(b)
	if err != nil {
		return Packed{}, err
	}
	p := Packed{n: n}
	var prev uint32
	for i := 0; i < nn; i++ {
		d, k := readUvarint(exc)
		exc = exc[k:]
		prev += uint32(d)
		p.nified = append(p.nified, prev)
	}
	p.data = append([]byte(nil), payload...)
	return p, nil
}

// IndexN returns the 0-based position of the first 'N' at or after from in
// an encoded packed sequence, or -1 when there is none, read from its
// exception list without unpacking a base. It refuses exactly the
// encodings Decode refuses, with Decode's errors.
func IndexN(b []byte, from int) (int, error) {
	_, nn, exc, _, err := layout(b)
	if err != nil {
		return -1, err
	}
	var prev uint32
	for i := 0; i < nn; i++ {
		d, k := readUvarint(exc)
		exc = exc[k:]
		if prev += uint32(d); int(prev) >= from {
			return int(prev), nil
		}
	}
	return -1, nil
}

// layout checks an encoded packed sequence as Decode reads it and returns
// its length in bases, its exception count, the bytes of its exception
// list and its payload.
func layout(b []byte) (n, nn int, exc, payload []byte, err error) {
	n64, k := readUvarint(b)
	if k <= 0 {
		return 0, 0, nil, nil, errors.New("seq: truncated packed sequence header")
	}
	b = b[k:]
	if n64 > 4*uint64(len(b)) {
		// Four bases a byte: a length the rest cannot hold is corrupt (and
		// would overflow int below).
		return 0, 0, nil, nil, fmt.Errorf("seq: packed length %d exceeds the %d bytes that follow", n64, len(b))
	}
	nn64, k := readUvarint(b)
	if k <= 0 {
		return 0, 0, nil, nil, errors.New("seq: truncated packed exception count")
	}
	b = b[k:]
	n = int(n64)
	if nn64 > n64 {
		return 0, 0, nil, nil, errors.New("seq: more N exceptions than bases")
	}
	exc = b
	var prev uint32
	for i := uint64(0); i < nn64; i++ {
		d, k := readUvarint(b)
		if k <= 0 {
			return 0, 0, nil, nil, errors.New("seq: truncated packed exception list")
		}
		b = b[k:]
		prev += uint32(d)
		if int(prev) >= n {
			return 0, 0, nil, nil, errors.New("seq: N exception beyond sequence end")
		}
	}
	exc = exc[:len(exc)-len(b)]
	want := (n + 3) / 4
	if len(b) < want {
		return 0, 0, nil, nil, fmt.Errorf("seq: packed payload truncated: have %d bytes, want %d", len(b), want)
	}
	return n, int(nn64), exc, b[:want], nil
}

// PackedSize returns the encoded size in bytes of a sequence of n bases with
// k N-exceptions, assuming single-byte varints (true for reads under 128bp).
func PackedSize(n, k int) int {
	return 2 + k + (n+3)/4
}

const binaryMaxVarint = 5

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func readUvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
