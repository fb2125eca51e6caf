package stats_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// windowTable is 100 000 rows of a uniform column u over [0, 25 000) —
// alignment positions — and a Zipfian column z over [4, 40 000) — read
// depth — analyzed by the Collector.
func windowTable(t testing.TB) (*stats.TableStats, [][2]int64) {
	t.Helper()
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.3, 4, 40_000)
	c := stats.NewCollector([]string{"u", "z"}, 0, 1)
	vals := make([][2]int64, n)
	for i := range vals {
		vals[i] = [2]int64{rng.Int63n(25_000), 4 + int64(zipf.Uint64())}
		c.Add(sqltypes.Row{sqltypes.NewInt(vals[i][0]), sqltypes.NewInt(vals[i][1])})
	}
	return c.Finalize(1, "w", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs), vals
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func intp(v int64) *sqltypes.Value {
	x := sqltypes.NewInt(v)
	return &x
}

// TestRangeSelectivity prices windows over a uniform and a Zipfian column:
// a point is the `=` estimate, an empty window 0, the bounds' inclusivity
// counts, an open side matches the one-sided comparison, and every window
// holding >= 50 rows is estimated within 2x.
func TestRangeSelectivity(t *testing.T) {
	ts, vals := windowTable(t)
	n := float64(ts.RowCount)
	truth := func(col int, lo *sqltypes.Value, loInc bool, hi *sqltypes.Value, hiInc bool) float64 {
		k := 0
		for _, v := range vals {
			x := v[col]
			if lo != nil && (x < lo.I || (x == lo.I && !loInc)) {
				continue
			}
			if hi != nil && (x > hi.I || (x == hi.I && !hiInc)) {
				continue
			}
			k++
		}
		return float64(k)
	}
	sel := func(col string, lo *sqltypes.Value, loInc bool, hi *sqltypes.Value, hiInc bool) float64 {
		t.Helper()
		s, ok := ts.RangeSelectivity(col, lo, loInc, hi, hiInc)
		if !ok || s < 0 || s > 1 {
			t.Fatalf("%s %v..%v: %v ok=%v", col, lo, hi, s, ok)
		}
		return s
	}
	for ci, col := range []string{"u", "z"} {
		// lo == hi is the `=` estimate, MCVs and out-of-range values too.
		for _, v := range []int64{-5, 0, 4, 5, 12_345, 24_999, 39_999, 99_999} {
			eq, _ := ts.CmpSelectivity(col, "=", sqltypes.NewInt(v))
			if got := sel(col, intp(v), true, intp(v), true); got != eq {
				t.Errorf("%s [%d, %d] = %v, `=` estimates %v", col, v, v, got, eq)
			}
		}
		// lo > hi, and a point with an open end, hold nothing.
		if got := sel(col, intp(900), true, intp(100), true); got != 0 {
			t.Errorf("%s [900, 100] = %v, want 0", col, got)
		}
		if got := sel(col, intp(100), false, intp(100), true); got != 0 {
			t.Errorf("%s (100, 100] = %v, want 0", col, got)
		}
		// Integer bounds: (lo, hi) is [lo+1, hi-1]; each closed end adds.
		open := sel(col, intp(100), false, intp(300), false)
		if got := sel(col, intp(101), true, intp(299), true); got != open {
			t.Errorf("%s (100, 300) = %v, [101, 299] = %v", col, open, got)
		}
		closed := sel(col, intp(100), true, intp(300), true)
		if half := sel(col, intp(100), true, intp(300), false); !(open <= half && half <= closed) {
			t.Errorf("%s: (100,300) %v, [100,300) %v, [100,300] %v not ordered", col, open, half, closed)
		}
		// One open side is the one-sided comparison, within half a percent.
		for _, v := range []int64{50, 1000, 20_000} {
			le, _ := ts.CmpSelectivity(col, "<=", sqltypes.NewInt(v))
			ge, _ := ts.CmpSelectivity(col, ">=", sqltypes.NewInt(v))
			if got := sel(col, nil, false, intp(v), true); math.Abs(got-le) > 0.005 {
				t.Errorf("%s <= %d: window %v, comparison %v", col, v, got, le)
			}
			if got := sel(col, intp(v), true, nil, false); math.Abs(got-ge) > 0.005 {
				t.Errorf("%s >= %d: window %v, comparison %v", col, v, got, ge)
			}
		}
		// Every window of >= 50 true rows within 2x. (A point is the `=`
		// estimate, checked above: a value the MCV list missed gets the
		// average share, which the head of a Zipfian column exceeds.)
		rng := rand.New(rand.NewSource(int64(ci)))
		checked := 0
		for i := 0; i < 400; i++ {
			lo := rng.Int63n(26_000)
			if col == "z" {
				lo = 4 + int64(math.Exp(rng.Float64()*math.Log(40_000)))
			}
			hi := lo + []int64{1, 10, 200, 1000, 5000}[i%5]
			loInc, hiInc := i%3 != 0, i%7 != 0
			want := truth(ci, intp(lo), loInc, intp(hi), hiInc)
			if first, last := lo+int64(b2i(!loInc)), hi-int64(b2i(!hiInc)); want < 50 || last <= first {
				continue // few rows, or one value: a point
			}
			checked++
			got := sel(col, intp(lo), loInc, intp(hi), hiInc) * n
			if got > 2*want || want > 2*got {
				t.Errorf("%s %d..%d (inc %v %v): estimated %.0f rows, %.0f true", col, lo, hi, loInc, hiInc, got, want)
			}
		}
		if checked < 50 {
			t.Errorf("%s: only %d windows held >= 50 rows", col, checked)
		}
	}
	if _, ok := ts.RangeSelectivity("nope", intp(1), true, intp(2), true); ok {
		t.Error("a column without stats was priced")
	}
	if _, ok := ts.RangeSelectivity("u", &sqltypes.Null, true, intp(2), true); ok {
		t.Error("a NULL bound was priced")
	}
}

// FuzzRangeSelectivity prices comparisons and windows over statistics as
// OpenStore decodes them from stats.json — unsorted buckets, NaN, infinite
// and wrong-kind bounds, negative counts — and over statistics the
// Collector built from fuzzed rows. Every estimate is in [0, 1] and no
// input panics; over the Collector's statistics, widening a window never
// lowers its estimate.
func FuzzRangeSelectivity(f *testing.F) {
	f.Add([]byte(`{"row_count":100,"columns":[{"name":"c","null_count":5,"ndv":40,"min":{"K":1,"I":0},"max":{"K":1,"I":99},"mcvs":[{"value":{"K":1,"I":7},"count":20}],"histogram":[{"upper":{"K":1,"I":50},"rows":40,"ndv":20},{"upper":{"K":1,"I":99},"rows":35,"ndv":19}],"hist_rows":75}]}`),
		1.5, int64(1), uint8(0), int64(10), int64(60), uint8(3), uint16(5), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, fb float64, seed int64, shape uint8, lo, hi int64, flags uint8, d1, d2 uint16) {
		var ts stats.TableStats
		if json.Unmarshal(data, &ts) == nil {
			priceAll(t, &ts, fb, lo, hi, flags)
			// The fuzzed float planted into the bounds: NaN, ±Inf, huge.
			for i := range ts.Columns {
				c := &ts.Columns[i]
				v := sqltypes.NewFloat(fb)
				c.Min = &v
				if len(c.Histogram) > 0 {
					c.Histogram[len(c.Histogram)-1].Upper = v
				}
			}
			priceAll(t, &ts, fb, lo, hi, flags)
		}

		built := collected(seed, shape)
		loInc, hiInc := flags&1 != 0, flags&2 != 0
		narrow, _ := built.RangeSelectivity("c", intp(lo), loInc, intp(hi), hiInc)
		wlo, whi := lo-int64(d1), hi+int64(d2)
		if wlo > lo {
			wlo = math.MinInt64 // wrapped: open further than any bound
		}
		if whi < hi {
			whi = math.MaxInt64
		}
		wide, _ := built.RangeSelectivity("c", intp(wlo), loInc || flags&4 != 0, intp(whi), hiInc || flags&8 != 0)
		if wide < narrow {
			t.Fatalf("window %d..%d (inc %v %v) = %v, widened to %d..%d = %v", lo, hi, loInc, hiInc, narrow, wlo, whi, wide)
		}
		if open, _ := built.RangeSelectivity("c", nil, false, nil, false); open < wide {
			t.Fatalf("unbounded window %v below %d..%d = %v", open, wlo, whi, wide)
		}
	})
}

// priceAll prices every comparison and a few windows on every column and
// checks each estimate is a fraction.
func priceAll(t *testing.T, ts *stats.TableStats, fb float64, lo, hi int64, flags uint8) {
	t.Helper()
	bounds := []sqltypes.Value{
		sqltypes.NewInt(lo), sqltypes.NewInt(hi), sqltypes.NewFloat(fb), sqltypes.NewString("m"), sqltypes.NewBool(true),
	}
	check := func(what string, s float64, ok bool) {
		if ok && !(s >= 0 && s <= 1) {
			t.Fatalf("%s = %v", what, s)
		}
	}
	for _, c := range ts.Columns {
		for _, v := range bounds {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				s, ok := ts.CmpSelectivity(c.Name, op, v)
				check(c.Name+" "+op+" "+v.String(), s, ok)
			}
			for _, w := range bounds {
				s, ok := ts.RangeSelectivity(c.Name, &v, flags&1 != 0, &w, flags&2 != 0)
				check(c.Name+" "+v.String()+".."+w.String(), s, ok)
			}
			s, ok := ts.RangeSelectivity(c.Name, &v, true, nil, false)
			check(c.Name+" "+v.String()+"..", s, ok)
			s, ok = ts.RangeSelectivity(c.Name, nil, false, &v, true)
			check(c.Name+" .."+v.String(), s, ok)
		}
	}
}

// collected analyzes 1 000 rows of one integer column drawn from the
// fuzzed seed and shape: uniform over a narrow or a wide domain, Zipfian,
// a few heavy values, or with NULLs, through a small sample so the
// sampling, the MCV list and the histogram all take part.
func collected(seed int64, shape uint8) *stats.TableStats {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1+float64(shape%4)/4, 1, 1<<20)
	span := int64(1) << (shape % 40)
	c := stats.NewCollector([]string{"c"}, 128, seed)
	for i := 0; i < 1000; i++ {
		var v sqltypes.Value
		switch shape / 40 % 5 {
		case 0:
			v = sqltypes.NewInt(rng.Int63n(span) - span/2)
		case 1:
			v = sqltypes.NewInt(int64(zipf.Uint64()))
		case 2:
			v = sqltypes.NewInt(int64(rng.Intn(3)) * span)
		case 3:
			if rng.Intn(3) == 0 {
				break // NULL
			}
			v = sqltypes.NewInt(rng.Int63n(span))
		default:
			v = sqltypes.NewInt(int64(i) * (span/1000 + 1))
		}
		c.Add(sqltypes.Row{v})
	}
	return c.Finalize(1, "f", 0, 16, 4)
}
