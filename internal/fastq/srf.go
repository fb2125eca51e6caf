package fastq

import (
	"bufio"
	"encoding/binary"
	"errors"
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
// 1.0 = nominal full signal) — a simple per-read signal summary: the mean
// over the bases of the strongest of each base's four channel values.
func (r *SRFRecord) AvgIntensity() float64 {
	if len(r.Intensities) == 0 {
		return 0
	}
	total := 0.0
	for _, t := range r.Intensities {
		total += float64(max(t[0], t[1], t[2], t[3])) / 1000
	}
	return total / float64(len(r.Intensities))
}

// SRFAvgIntensity is AvgIntensity over a record's intensity tuples as the
// container stores them (its FieldExtra): 8 bytes a base, four
// little-endian channel values.
func SRFAvgIntensity(tuples []byte) float64 {
	bases := len(tuples) / 8
	if bases == 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < 8*bases; i += 8 {
		t := tuples[i : i+8]
		best := max(binary.LittleEndian.Uint16(t), binary.LittleEndian.Uint16(t[2:]),
			binary.LittleEndian.Uint16(t[4:]), binary.LittleEndian.Uint16(t[6:]))
		total += float64(best) / 1000
	}
	return total / float64(bases)
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
		var f Fields
		end := srfRecordAt(data, pos, &f)
		if end == 0 {
			return nil, errSRFTruncated
		}
		out = append(out, srfRecordOf(data, &f))
		pos = end
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
	parse := SRFFormat()
	return func(data []byte, atEOF bool) (int, error) {
		var f [1]Fields
		consumed, n, err := parse(data, atEOF, 1, f[:])
		if n == 1 {
			*rec = srfRecordOf(data, &f[0])
		}
		return entryOf(consumed, n, err)
	}
}

// SRFFormat returns the Format of one SRF container: it skips the header,
// then parses the records it declared, and fails on a container that ends
// before them or holds bytes after them. A record's intensity tuples are
// its FieldExtra, decoded only by a reader that asks for them.
func SRFFormat() Format {
	headerDone := false
	remaining := uint64(0)
	return func(data []byte, atEOF bool, limit int, fields []Fields) (consumed, n int, err error) {
		if !headerDone {
			if len(data) < 5 {
				if atEOF {
					return 0, 0, fmt.Errorf("srf: truncated header")
				}
				return 0, 0, nil
			}
			if string(data[:4]) != SRFMagic {
				return 0, 0, fmt.Errorf("srf: bad magic")
			}
			count, k := binary.Uvarint(data[4:])
			if k <= 0 {
				if atEOF {
					return 0, 0, fmt.Errorf("srf: truncated header")
				}
				return 0, 0, nil
			}
			headerDone, remaining, consumed = true, count, 4+k
		}
		for n < limit {
			if remaining == 0 {
				if consumed < len(data) {
					return consumed, n, fmt.Errorf("srf: %d trailing bytes after final record", len(data)-consumed)
				}
				break // the end of input after the last record
			}
			var f Fields
			end := srfRecordAt(data, consumed, &f)
			if end == 0 {
				if atEOF {
					return consumed, n, errSRFTruncated
				}
				break
			}
			if fields != nil {
				fields[n] = f
			}
			remaining--
			consumed = end
			n++
		}
		return consumed, n, nil
	}
}

var errSRFTruncated = errors.New("srf: truncated record at end of file")

// srfRecordOf copies a record's fields out of data into a record of its
// own.
func srfRecordOf(data []byte, f *Fields) SRFRecord {
	at := func(i int) []byte { return data[f[i].Start:f[i].End] }
	tuples := at(FieldExtra)
	intens := make([][4]uint16, len(tuples)/8)
	for i := range intens {
		for c := 0; c < 4; c++ {
			intens[i][c] = binary.LittleEndian.Uint16(tuples[8*i+2*c:])
		}
	}
	return SRFRecord{Name: string(at(FieldName)), Seq: string(at(FieldSeq)), Qual: string(at(FieldQual)), Intensities: intens}
}

// srfRecordAt parses the record at data[pos:] into *f and returns where it
// ends; 0 when data holds only part of it. Each declared length is checked
// against the bytes left before it is used, so a corrupt length asks for
// more data (an error at EOF), never a slice past the end.
func srfRecordAt(data []byte, pos int, f *Fields) (end int) {
	nameLen, k := binary.Uvarint(data[pos:])
	if k <= 0 || nameLen > uint64(len(data)-pos-k) {
		return 0
	}
	name := pos + k
	pos = name + int(nameLen)
	seqLen, k := binary.Uvarint(data[pos:])
	// A base takes 10 bytes: itself, its quality and four 2-byte intensities.
	if k <= 0 || seqLen > uint64(len(data)-pos-k)/10 {
		return 0
	}
	seq, bases := pos+k, int(seqLen)
	*f = Fields{
		FieldName:  {name, name + int(nameLen)},
		FieldSeq:   {seq, seq + bases},
		FieldQual:  {seq + bases, seq + 2*bases},
		FieldExtra: {seq + 2*bases, seq + 10*bases},
	}
	return seq + 10*bases
}
