package storage

import (
	"strings"

	"repro/internal/sqltypes"
)

// Zone maps are per-sealed-page, per-column min/max summaries kept in
// memory alongside the heap's page directory. A scan carrying a sargable
// predicate skips whole pages whose range provably cannot satisfy it.
// Entries are collected when a tail page is sealed; pages sealed by an
// earlier process start without entries (recovery does not decode page
// payloads) and are filled lazily by FillZoneMaps (CHECKPOINT / ANALYZE).
// Skipping is strictly conservative: a page without a valid entry is
// always read.

// ZoneEntry is one column's summary over one sealed page.
type ZoneEntry struct {
	Valid      bool // entry was collected (column kind is comparable)
	HasNonNull bool // at least one non-NULL value on the page
	Min, Max   sqltypes.Value
}

// ZoneFilter is one column's sargable bound for page pruning: only rows
// with Lo <= col <= Hi can match (bounds are inclusive; pass a NULL
// value for an open bound). Comparison predicates never match NULL rows,
// so an all-NULL page is skippable under any filter.
type ZoneFilter struct {
	Col    int
	Lo, Hi sqltypes.Value
}

// zoneComparable reports whether a storage kind participates in zone
// maps. Bytes columns (VARBINARY, packed SEQUENCE) are excluded: their
// storage ordering does not match query-level comparisons.
func zoneComparable(k sqltypes.Kind) bool {
	switch k {
	case sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool:
		return true
	}
	return false
}

// buildZoneEntries summarizes one sealed page's rows (storage format).
func buildZoneEntries(kinds []sqltypes.Kind, rows []sqltypes.Row) []ZoneEntry {
	zs := make([]ZoneEntry, len(kinds))
	for c, k := range kinds {
		if !zoneComparable(k) {
			continue
		}
		z := ZoneEntry{Valid: true}
		for _, r := range rows {
			v := r[c]
			if v.IsNull() {
				continue
			}
			if !z.HasNonNull {
				z.Min, z.Max, z.HasNonNull = v, v, true
				continue
			}
			if sqltypes.Compare(v, z.Min) < 0 {
				z.Min = v
			}
			if sqltypes.Compare(v, z.Max) > 0 {
				z.Max = v
			}
		}
		if k == sqltypes.KindString {
			// Rows read off a page cut their strings from one allocation a
			// column (rowpage.go): keep the two, not the page's text.
			z.Min.S, z.Max.S = strings.Clone(z.Min.S), strings.Clone(z.Max.S)
		}
		zs[c] = z
	}
	return zs
}

// skipByZones reports whether a page summarized by zs provably holds no
// row satisfying every filter.
func skipByZones(zs []ZoneEntry, filters []ZoneFilter) bool {
	for _, f := range filters {
		if f.Col < 0 || f.Col >= len(zs) {
			continue
		}
		z := zs[f.Col]
		if !z.Valid {
			continue
		}
		if !z.HasNonNull {
			return true // comparisons never match NULL
		}
		if !f.Lo.IsNull() && sqltypes.Compare(z.Max, f.Lo) < 0 {
			return true
		}
		if !f.Hi.IsNull() && sqltypes.Compare(z.Min, f.Hi) > 0 {
			return true
		}
	}
	return false
}

// noteSealedZonesLocked records zone entries for the page just appended
// to pageRows. Caller holds h.mu.
func (h *Heap) noteSealedZonesLocked(rows []sqltypes.Row) {
	// Pages sealed while earlier pages still lack entries keep the slice
	// aligned with pageRows by padding with invalid (always-read) entries.
	for len(h.zones) < len(h.pageRows)-1 {
		h.zones = append(h.zones, nil)
	}
	h.zones = append(h.zones, buildZoneEntries(h.kinds, rows))
}

// FillZoneMaps computes zone entries for sealed pages that lack them
// (pages persisted before this process opened the heap). It reads those
// pages through the buffer pool; concurrent scans are safe.
func (h *Heap) FillZoneMaps() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.zones) < len(h.pageRows) {
		h.zones = append(h.zones, nil)
	}
	for p := range h.zones {
		if h.zones[p] != nil {
			continue
		}
		rows, err := h.sealedPageRows(int64(p))
		if err != nil {
			// Unreadable (e.g. corrupt) pages keep no entry: they are always
			// read, so the query that touches them surfaces the error — zone
			// collection must not turn bit rot into an open/checkpoint
			// failure.
			continue
		}
		h.zones[p] = buildZoneEntries(h.kinds, rows)
	}
	return nil
}

// ZoneSkip reports whether sealed page p (0-based) can be skipped under
// the filters. Pages without collected entries are never skipped.
func (h *Heap) ZoneSkip(p int64, filters []ZoneFilter) bool {
	if len(filters) == 0 {
		return false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if p < 0 || p >= int64(len(h.zones)) || h.zones[p] == nil {
		return false
	}
	return skipByZones(h.zones[p], filters)
}

// ZonePrunedPages returns how many of the sealed pages in [0, total)
// survive zone pruning under the filters, and the total — the planner's
// exact page-I/O figure for a zone-map-pruned scan.
func (h *Heap) ZonePrunedPages(filters []ZoneFilter) (kept, total int64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	total = int64(len(h.pageRows))
	if len(filters) == 0 {
		return total, total
	}
	kept = total
	for p := 0; p < len(h.zones) && p < len(h.pageRows); p++ {
		if h.zones[p] != nil && skipByZones(h.zones[p], filters) {
			kept--
		}
	}
	return kept, total
}

// ZonesCollected returns how many sealed pages currently carry zone
// entries (observability for tests and ANALYZE).
func (h *Heap) ZonesCollected() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var n int64
	for _, z := range h.zones {
		if z != nil {
			n++
		}
	}
	return n
}
