// Package stats implements table statistics for the cost-aware planner:
// ANALYZE collects per-column row counts, null fractions, min/max bounds,
// NDV estimates (HyperLogLog sketches), most-common values and equi-depth
// histograms from a sampled parallel scan; the planner consumes them to
// estimate predicate selectivity and join output cardinality. Genomics
// workloads are pathologically skewed (read depth, chromosome coverage,
// duplicate reads), which is exactly what raw row counts cannot see and
// histograms + MCVs can.
package stats

import (
	"math"
	"strings"

	"repro/internal/sqltypes"
)

// MCV is one most-common value with its estimated total row count.
type MCV struct {
	Value sqltypes.Value `json:"value"`
	Count int64          `json:"count"`
}

// Bucket is one equi-depth histogram bucket: rows with values greater
// than the previous bucket's upper bound (or >= the column minimum for
// the first bucket) and <= Upper. NDV is the distinct-value count seen in
// the bucket's sample slice (diagnostic; overall NDV drives equality
// estimates).
type Bucket struct {
	Upper sqltypes.Value `json:"upper"`
	Rows  int64          `json:"rows"`
	NDV   int64          `json:"ndv"`
}

// ColumnStats is the collected distribution of one column.
type ColumnStats struct {
	Name      string          `json:"name"`
	NullCount int64           `json:"null_count"`
	NDV       int64           `json:"ndv"`
	Min       *sqltypes.Value `json:"min,omitempty"`
	Max       *sqltypes.Value `json:"max,omitempty"`
	MCVs      []MCV           `json:"mcvs,omitempty"`
	Histogram []Bucket        `json:"histogram,omitempty"`
	// HistRows is the row count the histogram represents (non-null rows
	// not covered by the MCV list).
	HistRows int64 `json:"hist_rows"`
}

// TableStats is one table's collected statistics.
type TableStats struct {
	TableID     uint32 `json:"table_id"`
	Table       string `json:"table"`
	RowCount    int64  `json:"row_count"`
	SampleRows  int64  `json:"sample_rows"`
	AvgRowBytes int64  `json:"avg_row_bytes"`
	// ModCount is the table's modification counter at ANALYZE time; the
	// engine invalidates the stats when the live counter drifts too far.
	ModCount int64         `json:"mod_count"`
	Columns  []ColumnStats `json:"columns"`
}

// Column returns the named column's stats (case-insensitive), or nil.
func (t *TableStats) Column(name string) *ColumnStats {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// ColumnNDV returns the column's estimated number of distinct values, or
// 0 when unknown.
func (t *TableStats) ColumnNDV(name string) int64 {
	if c := t.Column(name); c != nil {
		return c.NDV
	}
	return 0
}

// NullSelectivity estimates the fraction of rows passing `col IS [NOT]
// NULL`. ok=false when the column has no stats.
func (t *TableStats) NullSelectivity(col string, negate bool) (float64, bool) {
	c := t.Column(col)
	if c == nil || t.RowCount <= 0 {
		return 0, false
	}
	nullFrac := float64(c.NullCount) / float64(t.RowCount)
	if negate {
		return clampSel(1 - nullFrac), true
	}
	return clampSel(nullFrac), true
}

// CmpSelectivity estimates the fraction of rows passing `col op v` for op
// in =, <>, <, <=, >, >=. ok=false when the column has no stats or the
// operator is unknown.
func (t *TableStats) CmpSelectivity(col, op string, v sqltypes.Value) (float64, bool) {
	c := t.Column(col)
	if c == nil || t.RowCount <= 0 || v.IsNull() {
		return 0, false
	}
	nonNull := float64(t.RowCount-c.NullCount) / float64(t.RowCount)
	switch op {
	case "=":
		return clampSel(c.eqFraction(v, t.RowCount)), true
	case "<>":
		return clampSel(nonNull - c.eqFraction(v, t.RowCount)), true
	case "<":
		return clampSel(c.belowFraction(v, t.RowCount)), true
	case "<=":
		return clampSel(c.belowFraction(v, t.RowCount) + c.eqFraction(v, t.RowCount)), true
	case ">":
		return clampSel(nonNull - c.belowFraction(v, t.RowCount) - c.eqFraction(v, t.RowCount)), true
	case ">=":
		return clampSel(nonNull - c.belowFraction(v, t.RowCount)), true
	}
	return 0, false
}

// eqFraction estimates the fraction of rows equal to v: exact-ish from
// the MCV list, otherwise uniform across the non-MCV distinct values.
func (c *ColumnStats) eqFraction(v sqltypes.Value, rowCount int64) float64 {
	if rowCount <= 0 {
		return 0
	}
	total := float64(rowCount)
	for _, m := range c.MCVs {
		if sqltypes.Equal(m.Value, v) {
			return float64(m.Count) / total
		}
	}
	// Outside the recorded range the value cannot exist (min/max are exact
	// over the scanned rows).
	if c.Min != nil && sqltypes.Compare(v, *c.Min) < 0 {
		return 0
	}
	if c.Max != nil && sqltypes.Compare(v, *c.Max) > 0 {
		return 0
	}
	return c.otherValueRows(rowCount) / total
}

// otherValueRows estimates the rows holding one value that is not an MCV:
// the non-MCV rows spread evenly over the non-MCV distinct values.
func (c *ColumnStats) otherValueRows(rowCount int64) float64 {
	var mcvRows int64
	for _, m := range c.MCVs {
		mcvRows += m.Count
	}
	otherRows := rowCount - c.NullCount - mcvRows
	otherNDV := c.NDV - int64(len(c.MCVs))
	if otherRows <= 0 {
		return 0
	}
	if otherNDV <= 0 {
		// All observed values are MCVs and v is not among them.
		return 1
	}
	return float64(otherRows) / float64(otherNDV)
}

// belowFraction estimates the fraction of rows strictly less than v,
// combining the MCV list with histogram interpolation.
func (c *ColumnStats) belowFraction(v sqltypes.Value, rowCount int64) float64 {
	if rowCount <= 0 {
		return 0
	}
	var below float64
	for _, m := range c.MCVs {
		if sqltypes.Compare(m.Value, v) < 0 {
			below += float64(m.Count)
		}
	}
	return c.histBelow(&v, below) / float64(rowCount)
}

// histBelow adds to acc the histogram's rows strictly below v (the rows
// the MCV list does not hold), interpolating inside the bucket v falls in;
// a nil v is above every bucket. The last bucket reaches up to Max: the
// sample may have missed the largest values, the exact Max has not. It
// never decreases as v grows over sorted buckets.
func (c *ColumnStats) histBelow(v *sqltypes.Value, acc float64) float64 {
	if len(c.Histogram) == 0 || c.HistRows <= 0 {
		return acc
	}
	lower := c.Min
	last := len(c.Histogram) - 1
	for i := range c.Histogram {
		b := &c.Histogram[i]
		upper := b.Upper
		if i == last && c.Max != nil && sqltypes.Compare(*c.Max, upper) > 0 {
			upper = *c.Max
		}
		if v == nil || sqltypes.Compare(upper, *v) < 0 {
			acc += float64(b.Rows)
			lower = &b.Upper
			continue
		}
		// v falls inside this bucket: interpolate numerically when the
		// bounds allow it, otherwise assume half the bucket.
		acc += float64(b.Rows) * bucketFraction(lower, upper, *v)
		break
	}
	return acc
}

// RangeSelectivity estimates the fraction of rows inside one interval of
// a column, lo <(=) col <(=) hi, where a nil bound is open: the priced
// form of every `col op const` bound a query puts on the column, so two
// bounds are one window rather than two independent events. ok=false when
// the column has no stats or a bound is NULL.
//
// Integer bounds are made inclusive and the window is clipped to
// [Min, Max], where every value lies. A point window [v, v] is then
// exactly the `=` estimate and an empty one 0; any other window's rows
// are the MCVs inside it, exactly, plus the histogram's rows between its
// bounds, never less than one non-MCV value's share. So widening a
// window never lowers its estimate.
func (t *TableStats) RangeSelectivity(col string, lo *sqltypes.Value, loInc bool, hi *sqltypes.Value, hiInc bool) (float64, bool) {
	if t == nil || t.RowCount <= 0 || (lo != nil && lo.IsNull()) || (hi != nil && hi.IsNull()) {
		return 0, false
	}
	c := t.Column(col)
	if c == nil {
		return 0, false
	}
	// Integer bounds are made inclusive: x > 3 is x >= 4.
	if lo != nil && !loInc && lo.K == sqltypes.KindInt {
		if lo.I == math.MaxInt64 {
			return 0, true
		}
		v := sqltypes.NewInt(lo.I + 1)
		lo, loInc = &v, true
	}
	if hi != nil && !hiInc && hi.K == sqltypes.KindInt {
		if hi.I == math.MinInt64 {
			return 0, true
		}
		v := sqltypes.NewInt(hi.I - 1)
		hi, hiInc = &v, true
	}
	if c.Min != nil && (lo == nil || sqltypes.Compare(*c.Min, *lo) > 0) {
		lo, loInc = c.Min, true
	}
	if c.Max != nil && (hi == nil || sqltypes.Compare(*c.Max, *hi) < 0) {
		hi, hiInc = c.Max, true
	}
	if lo != nil && hi != nil {
		switch cmp := sqltypes.Compare(*lo, *hi); {
		case cmp > 0, cmp == 0 && !(loInc && hiInc):
			return 0, true
		case cmp == 0:
			return clampSel(c.eqFraction(*lo, t.RowCount)), true
		}
	}
	inside := func(v sqltypes.Value) bool {
		if lo != nil {
			if cmp := sqltypes.Compare(v, *lo); cmp < 0 || (cmp == 0 && !loInc) {
				return false
			}
		}
		if hi != nil {
			if cmp := sqltypes.Compare(v, *hi); cmp > 0 || (cmp == 0 && !hiInc) {
				return false
			}
		}
		return true
	}
	var rows float64
	for _, m := range c.MCVs {
		if inside(m.Value) {
			rows += float64(m.Count)
		}
	}
	// The histogram's rows between the bounds; an integer window [lo, hi]
	// spans hi+1-lo units, the histogram's [lo, hi+1).
	to := hi
	if hi != nil && hi.K == sqltypes.KindInt {
		if hi.I == math.MaxInt64 {
			to = nil
		} else {
			v := sqltypes.NewInt(hi.I + 1)
			to = &v
		}
	}
	hist := c.histBelow(to, 0)
	if lo != nil {
		hist -= c.histBelow(lo, 0)
	}
	rows += max(hist, c.otherValueRows(t.RowCount))
	if nonNull := float64(t.RowCount - c.NullCount); rows > nonNull {
		rows = nonNull
	}
	return clampSel(rows / float64(t.RowCount)), true
}

// bucketFraction estimates what fraction of a bucket's rows fall strictly
// below v, by linear interpolation over numeric bounds.
func bucketFraction(lower *sqltypes.Value, upper, v sqltypes.Value) float64 {
	if lower == nil {
		return 0.5
	}
	lo, errL := lower.AsFloat()
	hi, errH := upper.AsFloat()
	val, errV := v.AsFloat()
	if errL != nil || errH != nil || errV != nil || hi <= lo {
		return 0.5
	}
	f := (val - lo) / (hi - lo)
	if math.IsNaN(f) {
		return 0.5
	}
	return clampSel(f)
}

func clampSel(s float64) float64 {
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	}
	return s
}

// JoinCardinality estimates the output rows of an equi-join between
// inputs of lRows and rRows rows whose join keys have lNDV and rNDV
// distinct values: rows pair up through the common key domain, which
// containment bounds by the larger NDV. Unknown NDVs (<= 0) fall back to
// the pre-stats guess max(lRows, rRows) — exact for key/foreign-key
// joins.
func JoinCardinality(lRows, rRows, lNDV, rNDV int64) int64 {
	if lNDV <= 0 || rNDV <= 0 {
		if lRows > rRows {
			return lRows
		}
		return rRows
	}
	maxNDV := lNDV
	if rNDV > maxNDV {
		maxNDV = rNDV
	}
	est := float64(lRows) * float64(rRows) / float64(maxNDV)
	if est < 1 {
		return 1
	}
	if est > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(est + 0.5)
}
