package fastq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// SRF-style container (paper Section 5.3.1): the Sequence Read Format
// proposal packages level-1 short reads together with "core information
// from the image analysis steps such as intensity and signal-to-noise
// ratio values". This implementation is a compact binary container with
// the same content classes: read name, called bases, qualities, and the
// per-base 4-channel intensities the base caller saw.
//
// Layout:
//
//	header:  "SRF1" | uvarint record count
//	record:  uvarint nameLen | name
//	         uvarint seqLen  | bases | quals (Phred+33, seqLen bytes)
//	         intensities: seqLen * 4 * uint16 (little endian, fixed-point
//	         thousandths)

// SRFMagic identifies the container.
const SRFMagic = "SRF1"

// SRFRecord is one read with its image-analysis intensities.
type SRFRecord struct {
	Name        string
	Seq         string
	Qual        string
	Intensities [][4]uint16 // per base, channel order A,C,G,T
}

// Record converts to the plain FASTQ view.
func (r *SRFRecord) Record() Record {
	return Record{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
}

// Validate checks structural invariants.
func (r *SRFRecord) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("srf: record with empty name")
	}
	if len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("srf: record %q: qual length %d != seq length %d", r.Name, len(r.Qual), len(r.Seq))
	}
	if r.Intensities != nil && len(r.Intensities) != len(r.Seq) {
		return fmt.Errorf("srf: record %q: %d intensity tuples for %d bases", r.Name, len(r.Intensities), len(r.Seq))
	}
	return nil
}

// AvgIntensity returns the mean called-channel intensity (in raw units,
// 1.0 = nominal full signal) — a simple per-read signal summary.
func (r *SRFRecord) AvgIntensity() float64 {
	return avgIntensity(len(r.Intensities), func(i, c int) uint16 { return r.Intensities[i][c] })
}

// avgIntensity is the mean over n bases of the strongest of each base's
// four channel values, in raw units.
func avgIntensity(n int, channel func(base, c int) uint16) float64 {
	if n == 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		best := channel(i, 0)
		for c := 1; c < 4; c++ {
			best = max(best, channel(i, c))
		}
		total += float64(best) / 1000
	}
	return total / float64(n)
}

// WriteSRF writes a complete container.
func WriteSRF(w io.Writer, recs []SRFRecord) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(SRFMagic)
	writeUvarint(bw, uint64(len(recs)))
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return err
		}
		r := &recs[i]
		writeUvarint(bw, uint64(len(r.Name)))
		bw.WriteString(r.Name)
		writeUvarint(bw, uint64(len(r.Seq)))
		bw.WriteString(r.Seq)
		bw.WriteString(r.Qual)
		var b [2]byte
		for j := 0; j < len(r.Seq); j++ {
			var tuple [4]uint16
			if r.Intensities != nil {
				tuple = r.Intensities[j]
			}
			for _, v := range tuple {
				binary.LittleEndian.PutUint16(b[:], v)
				bw.Write(b[:])
			}
		}
	}
	return bw.Flush()
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [10]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

// ReadSRF parses a complete container.
func ReadSRF(r io.Reader) ([]SRFRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(SRFMagic) || string(data[:4]) != SRFMagic {
		return nil, fmt.Errorf("srf: bad magic")
	}
	pos := 4
	count, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("srf: truncated header")
	}
	pos += n
	// The declared count is not trusted for an allocation: each record
	// takes at least two bytes, so the data bounds the loop.
	var out []SRFRecord
	for i := uint64(0); i < count; i++ {
		consumed, f, err := srfEntry(data[pos:], true)
		if err != nil {
			return nil, err
		}
		pos += consumed
		out = append(out, f.record())
	}
	if pos != len(data) {
		return nil, fmt.Errorf("srf: %d trailing bytes after final record", len(data)-pos)
	}
	return out, nil
}

// SRFRecordEntry returns an EntryFunc for ChunkedScanner that decodes SRF
// records into *rec, skipping the container header transparently — so the
// same streaming TVF machinery that serves FASTQ FileStreams serves SRF
// FileStreams (the paper: "our hybrid approach would naturally extend to
// encapsulate SRF files as FileStreams too").
func SRFRecordEntry(rec *SRFRecord) EntryFunc {
	return srfContainer(func(f srfFields) { *rec = f.record() })
}

// SRFSpanEntry is SRFRecordEntry for a batch reader: it points *sp at each
// record's name, bases and qualities in the scan buffer and sets its mean
// intensity, decoding no intensity tuple into memory of its own.
func SRFSpanEntry(sp *Spans) EntryFunc {
	return srfContainer(func(f srfFields) {
		sp.Name, sp.Seq, sp.Qual = f.name, f.seq, f.qual
		sp.Intensity = avgIntensity(len(f.seq), func(i, c int) uint16 {
			return binary.LittleEndian.Uint16(f.intens[8*i+2*c:])
		})
	})
}

// srfContainer returns the EntryFunc of an SRF container: it skips the
// header, then hands each record's fields to emit.
func srfContainer(emit func(srfFields)) EntryFunc {
	headerDone := false
	remaining := uint64(0)
	return func(data []byte, atEOF bool) (int, error) {
		if !headerDone {
			if len(data) < 5 {
				if atEOF {
					return 0, fmt.Errorf("srf: truncated header")
				}
				return 0, nil
			}
			if string(data[:4]) != SRFMagic {
				return 0, fmt.Errorf("srf: bad magic")
			}
			count, n := binary.Uvarint(data[4:])
			if n <= 0 {
				if atEOF {
					return 0, fmt.Errorf("srf: truncated header")
				}
				return 0, nil
			}
			headerDone = true
			remaining = count
			return 4 + n, ErrSkipEntry
		}
		if remaining == 0 {
			if len(data) > 0 {
				return 0, fmt.Errorf("srf: %d trailing bytes after final record", len(data))
			}
			return 0, nil // the end of input after the last record
		}
		consumed, f, err := srfEntry(data, atEOF)
		if err != nil || consumed == 0 {
			return 0, err
		}
		remaining--
		emit(f)
		return consumed, nil
	}
}

// srfFields are one record's fields as spans of the parsed window; intens
// holds the 4-channel tuples, 8 bytes a base.
type srfFields struct{ name, seq, qual, intens []byte }

// record copies the fields into a record of their own.
func (f srfFields) record() SRFRecord {
	intens := make([][4]uint16, len(f.seq))
	for i := range intens {
		for c := 0; c < 4; c++ {
			intens[i][c] = binary.LittleEndian.Uint16(f.intens[8*i+2*c:])
		}
	}
	return SRFRecord{Name: string(f.name), Seq: string(f.seq), Qual: string(f.qual), Intensities: intens}
}

// srfEntry decodes one record; returns 0 when data is incomplete. Each
// declared length is checked against the bytes left before it is used, so
// a corrupt length asks for more data (an error at EOF), never a slice
// past the end.
func srfEntry(data []byte, atEOF bool) (int, srfFields, error) {
	nameLen, n := binary.Uvarint(data)
	if n <= 0 || nameLen > uint64(len(data)-n) {
		return srfMore(atEOF)
	}
	pos := n + int(nameLen)
	var f srfFields
	f.name = data[n:pos]
	seqLen, n := binary.Uvarint(data[pos:])
	// A base takes 10 bytes: itself, its quality and four 2-byte intensities.
	if n <= 0 || seqLen > uint64(len(data)-pos-n)/10 {
		return srfMore(atEOF)
	}
	pos += n
	bases := int(seqLen)
	f.seq = data[pos : pos+bases]
	pos += bases
	f.qual = data[pos : pos+bases]
	pos += bases
	f.intens = data[pos : pos+8*bases]
	return pos + 8*bases, f, nil
}

func srfMore(atEOF bool) (int, srfFields, error) {
	if atEOF {
		return 0, srfFields{}, fmt.Errorf("srf: truncated record at end of file")
	}
	return 0, srfFields{}, nil
}
