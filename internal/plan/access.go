package plan

import (
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Access-path selection for base-table scans. Pushed conjuncts of the
// shape `col op const` yield per-column sargable ranges; those ranges
// drive three alternatives priced by estimated page I/O:
//
//   - full scan: every sealed page plus the tail,
//   - zone-map-pruned scan: only pages whose min/max summaries may hold a
//     match (exact, from the heap's in-memory zone maps),
//   - secondary-index range scan: a B-tree descent, the matching index
//     entries, and one heap fetch per matching row.
//
// Page cost is deliberately separate from the output-row estimate: a
// selective predicate shrinks the output of any path, but only an index
// or zone pruning shrinks the pages actually read.

// sargRange is one column's combined bounds from the pushed conjuncts.
type sargRange struct {
	lo, hi       *sqltypes.Value
	loInc, hiInc bool
	// sel is the estimated combined selectivity of the conjuncts that
	// produced the bounds — the index scan's matching-entry fraction.
	sel float64
}

func (r *sargRange) bounded() bool { return r.lo != nil || r.hi != nil }

func (r *sargRange) tightenLo(v sqltypes.Value, inc bool) {
	if r.lo == nil {
		r.lo, r.loInc = &v, inc
		return
	}
	if c := sqltypes.Compare(v, *r.lo); c > 0 || (c == 0 && !inc) {
		r.lo, r.loInc = &v, inc
	}
}

func (r *sargRange) tightenHi(v sqltypes.Value, inc bool) {
	if r.hi == nil {
		r.hi, r.hiInc = &v, inc
		return
	}
	if c := sqltypes.Compare(v, *r.hi); c < 0 || (c == 0 && !inc) {
		r.hi, r.hiInc = &v, inc
	}
}

// sargValue normalizes a constant to the column's storage kind — the kind
// zone maps and index keys compare under. Constants that cannot be
// represented exactly in that kind (a float literal against an integer
// column) are rejected rather than coerced: a wrong-kind bound would
// compare under different ordering rules than the query's filter.
func sargValue(v sqltypes.Value, k sqltypes.Kind) (sqltypes.Value, bool) {
	if v.IsNull() {
		return v, false
	}
	switch k {
	case sqltypes.KindInt:
		if v.K == sqltypes.KindInt {
			return v, true
		}
	case sqltypes.KindFloat:
		switch v.K {
		case sqltypes.KindFloat:
			return v, true
		case sqltypes.KindInt:
			return sqltypes.NewFloat(float64(v.I)), true
		}
	case sqltypes.KindString:
		if v.K == sqltypes.KindString {
			return v, true
		}
	}
	return v, false
}

// sargableRanges extracts per-column bounds from pushed conjuncts of the
// shape `col op const` (either operand order; ops =, <, <=, >, >=).
// Conjuncts on the same column intersect. Keys are column positions.
func sargableRanges(sc *scope, tab *catalog.Table, ts *stats.TableStats, pushed []sqlparse.Expr) map[int]*sargRange {
	var out map[int]*sargRange
	for _, c := range pushed {
		b, ok := c.(*sqlparse.Binary)
		if !ok {
			continue
		}
		op := b.Op
		id, lok := b.L.(*sqlparse.Ident)
		v, rconst := constValue(b.R)
		if !lok || !rconst {
			id, lok = b.R.(*sqlparse.Ident)
			v, rconst = constValue(b.L)
			if !lok || !rconst {
				continue
			}
			op = flipCmp(op)
		}
		switch op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		idx, err := sc.resolve(id.Qualifier, id.Name)
		if err != nil {
			continue
		}
		sv, ok := sargValue(v, tab.Columns[idx].Type.StorageKind())
		if !ok {
			continue
		}
		if out == nil {
			out = map[int]*sargRange{}
		}
		r := out[idx]
		if r == nil {
			r = &sargRange{sel: 1}
			out[idx] = r
		}
		switch op {
		case "=":
			r.tightenLo(sv, true)
			r.tightenHi(sv, true)
		case ">":
			r.tightenLo(sv, false)
		case ">=":
			r.tightenLo(sv, true)
		case "<":
			r.tightenHi(sv, false)
		case "<=":
			r.tightenHi(sv, true)
		}
		r.sel *= conjunctSelectivity(ts, c)
	}
	return out
}

// zoneFiltersFrom renders the ranges as storage zone filters (in column
// order, so plans are deterministic). Zone-filter bounds are inclusive;
// an exclusive bound conservatively widens to inclusive — the pages kept
// are a superset, never fewer, so results cannot change.
func zoneFiltersFrom(ranges map[int]*sargRange) []storage.ZoneFilter {
	if len(ranges) == 0 {
		return nil
	}
	cols := make([]int, 0, len(ranges))
	for c := range ranges {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	out := make([]storage.ZoneFilter, 0, len(cols))
	for _, c := range cols {
		r := ranges[c]
		f := storage.ZoneFilter{Col: c, Lo: sqltypes.Null, Hi: sqltypes.Null}
		if r.lo != nil {
			f.Lo = *r.lo
		}
		if r.hi != nil {
			f.Hi = *r.hi
		}
		out = append(out, f)
	}
	return out
}

// clusteredSeekBounds turns the sargable range on a clustered table's
// leading key column into the half-open [lo, hi) an ordered scan takes.
// The result may be wider than the range, never narrower — an exclusive
// lower bound stays inclusive, an inclusive upper bound becomes v+1 for an
// integer and stays open for any other kind — which is safe because the
// whole pushed predicate still filters every row the scan returns.
func clusteredSeekBounds(r *sargRange) (lo, hi *sqltypes.Value) {
	lo = r.lo
	switch {
	case r.hi == nil:
	case !r.hiInc:
		hi = r.hi
	case r.hi.K == sqltypes.KindInt && r.hi.I < math.MaxInt64:
		v := sqltypes.NewInt(r.hi.I + 1)
		hi = &v
	}
	return lo, hi
}

// indexChoice is a candidate secondary index with the sargable range on
// its first key column.
type indexChoice struct {
	idx *catalog.Index
	rng *sargRange
}

// pickIndex selects the candidate index whose first-column range is
// estimated most selective; nil when no index has a bounded range.
func pickIndex(tab *catalog.Table, ranges map[int]*sargRange) *indexChoice {
	var best *indexChoice
	for i := range tab.Indexes {
		ix := &tab.Indexes[i]
		if len(ix.Columns) == 0 {
			continue
		}
		r := ranges[ix.Columns[0]]
		if r == nil || !r.bounded() {
			continue
		}
		if best == nil || r.sel < best.rng.sel {
			best = &indexChoice{idx: ix, rng: r}
		}
	}
	return best
}

// Page-cost model constants: the assumed rows per heap page when the
// engine reports no page statistics, the assumed index entries per leaf
// page, and the fixed B-tree descent cost.
const (
	costRowsPerPage    = 64
	costEntriesPerLeaf = 64
	costTreeDescent    = 2
)

// heapScanCost prices the heap alternative in pages: the surviving page
// count when zone statistics exist, a cardinality-derived guess otherwise
// (+1 for the unsealed tail either way).
func heapScanCost(rawEst, kept, total int64) float64 {
	if total > 0 {
		return float64(kept) + 1
	}
	return float64(rawEst)/costRowsPerPage + 1
}

// indexScanCost prices an index range scan returning idxRows entries:
// descent + leaf pages + one heap page fetch per matching row (the
// point-fetch cache collapses same-page neighbors, but random order makes
// one-page-per-row the honest upper bound).
func indexScanCost(idxRows int64) float64 {
	return costTreeDescent + float64(idxRows)/costEntriesPerLeaf + float64(idxRows)
}

// boundStr formats one scan bound for EXPLAIN; open bounds print empty,
// so a range renders as (100..200), (..200) or (100..).
func boundStr(v *sqltypes.Value) string {
	if v == nil {
		return ""
	}
	return v.String()
}

// sortKeysCoveredBy reports whether rel's physical ordering satisfies the
// sort terms (ascending prefix match by output column identity), letting
// ORDER BY and ROW_NUMBER consume index- or clustered-order directly.
func sortKeysCoveredBy(rel *relation, terms []sortTerm) bool {
	if len(terms) == 0 || len(rel.ordered) < len(terms) {
		return false
	}
	for i, t := range terms {
		if t.desc {
			return false
		}
		col, ok := t.expr.(*expr.Col)
		if !ok || col.Idx < 0 || col.Idx >= len(rel.cols) {
			return false
		}
		c, o := rel.cols[col.Idx], rel.ordered[i]
		if !strings.EqualFold(c.Name, o.Name) || !strings.EqualFold(c.Qual, o.Qual) {
			return false
		}
	}
	return true
}

// orderedOnIdent reports whether rel's first ordered column is the given
// join-key identifier.
func orderedOnIdent(rel *relation, id *sqlparse.Ident) bool {
	if len(rel.ordered) == 0 {
		return false
	}
	c := rel.ordered[0]
	if !strings.EqualFold(c.Name, id.Name) {
		return false
	}
	return id.Qualifier == "" || strings.EqualFold(c.Qual, id.Qualifier)
}
