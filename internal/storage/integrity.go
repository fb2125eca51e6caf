package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Page integrity. Heap and columnar data pages carry a format-version
// byte and a CRC32C (Castagnoli) checksum in the shared 16-byte data-page
// header:
//
//	[0]     page type (rowpage / page-compressed / columnar)
//	[1]     compression mode
//	[2:4]   row count
//	[4:6]   used payload bytes
//	[6]     page format version (0 = pre-checksum legacy, 1 = checksummed)
//	[7]     reserved
//	[8:12]  CRC32C over the full page with this field zeroed
//	[12:16] reserved
//
// Version 0 pages (databases written before checksums existed) are
// readable but skip verification — the version byte is the upgrade key.
// Pages written by this engine version are always stamped version 1
// unless checksums are disabled. The heap meta page (page 0) keeps its
// own magic and is not checksummed.
const (
	pageVerOff = 6
	pageCrcOff = 8

	// PageVerLegacy marks a pre-checksum page: no verification possible.
	PageVerLegacy = 0
	// PageVerChecksum marks a page whose CRC32C field is valid.
	PageVerChecksum = 1
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptPage is the class of on-disk page corruption: a checksum
// mismatch (the concrete error is then a *CorruptPageError naming the
// file and page) or a page header that cannot be true. Match with
// errors.Is. It fails the reading query only — other tables, whose pages
// are intact, stay readable.
var ErrCorruptPage = errors.New("storage: corrupt page")

// CorruptPageError reports a page whose stored CRC32C does not match its
// contents.
type CorruptPageError struct {
	Path string
	Page PageID
	Want uint32 // stored checksum
	Got  uint32 // computed checksum
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %d of %s: stored crc32c %08x, computed %08x: checksum mismatch", e.Page, e.Path, e.Want, e.Got)
}

// Unwrap makes errors.Is(err, ErrCorruptPage) work.
func (e *CorruptPageError) Unwrap() error { return ErrCorruptPage }

// stampPageChecksum marks page as format-version 1 and stores its CRC32C.
// The checksum covers the whole page with the CRC field zeroed.
func stampPageChecksum(page []byte) {
	page[pageVerOff] = PageVerChecksum
	binary.LittleEndian.PutUint32(page[pageCrcOff:], 0)
	crc := crc32.Checksum(page, castagnoli)
	binary.LittleEndian.PutUint32(page[pageCrcOff:], crc)
}

// pageChecksumOf computes the CRC32C a page should carry (its stored CRC
// field treated as zero) without modifying the page.
func pageChecksumOf(page []byte) uint32 {
	crc := crc32.Checksum(page[:pageCrcOff], castagnoli)
	crc = crc32.Update(crc, castagnoli, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, castagnoli, page[pageCrcOff+4:])
	return crc
}

// checkPageChecksum verifies a version-1 page image. Version-0 (legacy)
// pages return (false, nil): nothing to verify. Unknown future versions
// are corruption — the engine cannot interpret them.
func checkPageChecksum(path string, id PageID, page []byte) (checked bool, err error) {
	switch page[pageVerOff] {
	case PageVerLegacy:
		return false, nil
	case PageVerChecksum:
		want := binary.LittleEndian.Uint32(page[pageCrcOff:])
		got := pageChecksumOf(page)
		if want != got {
			return true, &CorruptPageError{Path: path, Page: id, Want: want, Got: got}
		}
		return true, nil
	default:
		return true, fmt.Errorf("storage: page %d of %s: unknown page format version %d: %w",
			id, path, page[pageVerOff], ErrCorruptPage)
	}
}
