package plan

import (
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Access-path selection for base-table scans. Pushed conjuncts of the
// shape `col op const` yield per-column sargable ranges, each priced once
// as one interval (sargRange.price); those ranges drive three
// alternatives, priced in units of one heap page read:
//
//   - full scan: every sealed page plus the tail, and the pushed
//     predicate run over every row on them (costFilterRow a row),
//   - zone-map-pruned scan: the same over only the pages whose min/max
//     summaries may hold a match (exact, from the heap's in-memory zone
//     maps),
//   - secondary-index range scan: a B-tree descent, the matching index
//     entries' leaf pages, the distinct heap pages k matching rows touch
//     over the P pages the heap path reads — Cardenas' P·(1−(1−1/P)^k),
//     at most min(k, P) — and costFetchRow a matching row.
//
// The two per-row constants come from EXPLAIN ANALYZE self times of
// COUNT(*) over an alignment heap shaped like the benchmark's AlignHeap
// (10 000 rows, 32 pages, positions scattered over 25 000 bp, so zone
// maps keep every page), warm and serial on a 2-vCPU Xeon VM: core's
// BenchmarkWindowAccessPaths, means of 3 000 runs (three runs of it read
// 0.107-0.147, 0.43-0.49, 0.089-0.098 and 0.51-0.57 ms; one is quoted):
//
//   - a page: the unfiltered scan, 0.107 ms / 32 pages = 3.3 µs;
//   - costFilterRow: a 200-bp window by the scan, 0.443 ms, less the
//     unfiltered scan, over 10 000 rows = 34 ns = 0.010 pages;
//   - costFetchRow: the 200-bp window by the index, 0.089 ms for 72
//     rows, and a 1 000-bp one, 0.530 ms for 398, are 1.23-1.33 µs a
//     fetched row with its pool get = 0.37-0.40 pages -> 0.37. Warm, the
//     touched pages cost nothing beyond that; cold, each is a read, which
//     the Cardenas term charges.
//
// On that table a window takes the index while it matches fewer than
// ~250 of the 10 000 rows; measured, the index stays the faster path up
// to ~330-360 rows.
//
// Those index figures were taken while COUNT(*) through the index still
// fetched every row. Now a scan whose consumers read only index key
// columns (COUNT(*) under the recheck filter, the key itself) reads the
// entries and fetches nothing, yet it is priced with the fetch and
// Cardenas terms all the same. That overprices it, which is conservative:
// the index wins no cost race it lost before, so no plan changes. The
// benchmark now times the fetching scan with SUM(a_mapq), a column outside
// the key, and the covered one as index-only-200bp; on a 2-vCPU Xeon VM
// (3 000 runs, -cpu 2) the 200-bp window read 0.058 ms fetched and 0.010
// ms index-only, the 1 000-bp one 0.307 ms fetched.
//
// Page cost is deliberately separate from the output-row estimate: a
// selective predicate shrinks the output of any path, but only an index
// or zone pruning shrinks the pages actually read.

// sargRange is one column's combined bounds from the pushed conjuncts.
type sargRange struct {
	col          int
	lo, hi       *sqltypes.Value
	loInc, hiInc bool
	// sel is the estimated fraction of rows inside the bounds, priced once
	// for the column: the index scan's matching-entry fraction and the
	// column's factor in the scan's row estimate.
	sel float64
}

// sargRanges holds one sargRange per bounded column, in the order the
// columns first appear among the conjuncts.
type sargRanges []*sargRange

// on returns the range on column col, or nil.
func (rs sargRanges) on(col int) *sargRange {
	for _, r := range rs {
		if r.col == col {
			return r
		}
	}
	return nil
}

// selectivity is the fraction of rows inside every column's bounds, the
// columns taken as independent.
func (rs sargRanges) selectivity() float64 {
	sel := 1.0
	for _, r := range rs {
		sel *= r.sel
	}
	return sel
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

// price sets sel from the bounds, priced as one interval: a point by its
// one equality estimate, a one-sided bound by its comparison, two bounds
// by the statistics' interval estimate, contradictory bounds as 0.
func (r *sargRange) price(ts *stats.TableStats, col string) {
	switch {
	case r.lo == nil:
		op := "<"
		if r.hiInc {
			op = "<="
		}
		r.sel = colCmpSelectivity(ts, col, op, *r.hi)
	case r.hi == nil:
		op := ">"
		if r.loInc {
			op = ">="
		}
		r.sel = colCmpSelectivity(ts, col, op, *r.lo)
	default:
		switch c := sqltypes.Compare(*r.lo, *r.hi); {
		case c > 0 || (c == 0 && !(r.loInc && r.hiInc)):
			r.sel = 0
		case c == 0:
			r.sel = colCmpSelectivity(ts, col, "=", *r.lo)
		default:
			s, ok := ts.RangeSelectivity(col, r.lo, r.loInc, r.hi, r.hiInc)
			if !ok {
				s = defaultRangeSel * defaultRangeSel
			}
			r.sel = s
		}
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
// Conjuncts on the same column intersect, and each column's bounds are
// priced once (sargRange.price). It is the one place such a conjunct is
// priced: the others come back as rest, for conjunctsSelectivity.
func sargableRanges(sc *scope, tab *catalog.Table, ts *stats.TableStats, pushed []sqlparse.Expr) (ranges sargRanges, rest []sqlparse.Expr) {
	for _, c := range pushed {
		idx, op, v, ok := sargConjunct(sc, tab, c)
		if !ok {
			rest = append(rest, c)
			continue
		}
		r := ranges.on(idx)
		if r == nil {
			r = &sargRange{col: idx}
			ranges = append(ranges, r)
		}
		switch op {
		case "=":
			r.tightenLo(v, true)
			r.tightenHi(v, true)
		case ">":
			r.tightenLo(v, false)
		case ">=":
			r.tightenLo(v, true)
		case "<":
			r.tightenHi(v, false)
		case "<=":
			r.tightenHi(v, true)
		}
	}
	for _, r := range ranges {
		r.price(ts, tab.Columns[r.col].Name)
	}
	return ranges, rest
}

// sargConjunct reads a conjunct of the shape `col op const` as the
// column's position, the operator with the column on its left, and the
// constant in the column's storage kind; ok=false for any other shape.
func sargConjunct(sc *scope, tab *catalog.Table, c sqlparse.Expr) (idx int, op string, v sqltypes.Value, ok bool) {
	b, isBin := c.(*sqlparse.Binary)
	if !isBin {
		return 0, "", v, false
	}
	op = b.Op
	id, lok := b.L.(*sqlparse.Ident)
	v, rconst := constValue(b.R)
	if !lok || !rconst {
		id, lok = b.R.(*sqlparse.Ident)
		v, rconst = constValue(b.L)
		if !lok || !rconst {
			return 0, "", v, false
		}
		op = flipCmp(op)
	}
	switch op {
	case "=", "<", "<=", ">", ">=":
	default:
		return 0, "", v, false
	}
	idx, err := sc.resolve(id.Qualifier, id.Name)
	if err != nil {
		return 0, "", v, false
	}
	v, ok = sargValue(v, tab.Columns[idx].Type.StorageKind())
	return idx, op, v, ok
}

// zoneFiltersFrom renders the ranges as storage zone filters (in column
// order, so plans are deterministic). Zone-filter bounds are inclusive;
// an exclusive bound conservatively widens to inclusive — the pages kept
// are a superset, never fewer, so results cannot change.
func zoneFiltersFrom(ranges sargRanges) []storage.ZoneFilter {
	if len(ranges) == 0 {
		return nil
	}
	out := make([]storage.ZoneFilter, 0, len(ranges))
	for _, r := range ranges {
		f := storage.ZoneFilter{Col: r.col, Lo: sqltypes.Null, Hi: sqltypes.Null}
		if r.lo != nil {
			f.Lo = *r.lo
		}
		if r.hi != nil {
			f.Hi = *r.hi
		}
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b storage.ZoneFilter) int { return a.Col - b.Col })
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
func pickIndex(tab *catalog.Table, ranges sargRanges) *indexChoice {
	var best *indexChoice
	for i := range tab.Indexes {
		ix := &tab.Indexes[i]
		if len(ix.Columns) == 0 {
			continue
		}
		r := ranges.on(ix.Columns[0])
		if r == nil || !r.bounded() {
			continue
		}
		if best == nil || r.sel < best.rng.sel {
			best = &indexChoice{idx: ix, rng: r}
		}
	}
	return best
}

// Cost-model constants, in units of one heap page read: the assumed rows
// per heap page when the engine reports no page statistics, the assumed
// index entries per leaf page, the fixed B-tree descent, the cost of
// fetching one matching row through the index and of filtering one row of
// a heap scan (the header comment says where the last two come from).
const (
	costRowsPerPage    = 64
	costEntriesPerLeaf = 64
	costTreeDescent    = 2
	costFetchRow       = 0.37
	costFilterRow      = 0.01
)

// heapRead is what the heap alternative reads: the zone-map survivors
// plus the unsealed tail when page statistics exist, a cardinality-derived
// guess otherwise, and the rows on those pages.
func heapRead(rawEst, kept, total int64) (pages, rows float64) {
	if total > 0 {
		pages = float64(kept) + 1
		return pages, float64(rawEst) * pages / float64(total+1)
	}
	return float64(rawEst)/costRowsPerPage + 1, float64(rawEst)
}

// heapScanCost prices the heap alternative: its pages, and the pushed
// predicate run over every row on them.
func heapScanCost(rawEst, kept, total int64) float64 {
	pages, rows := heapRead(rawEst, kept, total)
	return pages + rows*costFilterRow
}

// indexScanCost prices an index range scan matching idxRows entries: the
// descent, the leaf pages, the distinct heap pages the fetches touch and a
// per-row fetch. The fetches spread over the pages the heap alternative
// reads, not the whole table: zone maps keep every page that may hold a
// row inside the bounds, and in an append-only table a window's rows sit
// in the pages loaded with them, not among the rows appended since.
func indexScanCost(idxRows, rawEst, kept, total int64) float64 {
	pages, _ := heapRead(rawEst, kept, total)
	k := float64(idxRows)
	return costTreeDescent + k/costEntriesPerLeaf + pagesTouched(k, pages) + k*costFetchRow
}

// pagesTouched is Cardenas' estimate of the distinct pages k rows placed
// at random over p pages fall on, p·(1−(1−1/p)^k), never more than
// min(k, p).
func pagesTouched(k, p float64) float64 {
	if p <= 1 {
		return min(k, p)
	}
	return min(p*(1-math.Pow(1-1/p, k)), k, p)
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
