package plan

import (
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

// Default selectivities for predicate shapes the statistics cannot
// resolve (no ANALYZE yet, or no histogram for the column) — the classic
// System R magic numbers. Predicates the estimator does not understand at
// all (function calls, column-to-column comparisons) contribute 1.0, so
// an unestimable WHERE never talks a scan out of parallelism.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultLikeSel  = 0.25
	defaultNullSel  = 0.1
)

// conjunctsSelectivity estimates the combined selectivity of AND-ed
// conjuncts pushed into a base-table scan, multiplying the per-conjunct
// estimates (the usual independence assumption).
func conjunctsSelectivity(ts *stats.TableStats, conjuncts []sqlparse.Expr) float64 {
	sel := 1.0
	for _, c := range conjuncts {
		sel *= conjunctSelectivity(ts, c)
	}
	return clampSel01(sel)
}

// conjunctSelectivity estimates one predicate's selectivity over a base
// table, treating unestimable predicates as 1.0 (no reduction).
func conjunctSelectivity(ts *stats.TableStats, e sqlparse.Expr) float64 {
	if s, known := estimateSelectivity(ts, e); known {
		return s
	}
	return 1.0
}

// estimateSelectivity prices one predicate: equality/range/IN via the
// histograms, MCVs and NDV sketches when ts is non-nil, defaults
// otherwise. known=false marks shapes the estimator cannot price at all
// (function calls, column-to-column comparisons) — callers must NOT
// invert or combine an unknown as if it were a number (NOT of unknown is
// still unknown, not selectivity zero).
func estimateSelectivity(ts *stats.TableStats, e sqlparse.Expr) (float64, bool) {
	switch t := e.(type) {
	case *sqlparse.Binary:
		switch t.Op {
		case "AND":
			// Known only when BOTH branches are: a partially-unknown AND
			// is merely an upper bound, and a NOT above it would invert
			// that bound into a near-zero underestimate. (Top-level ANDs
			// are split into separate conjuncts before reaching here, so
			// the strictness only affects ANDs nested under NOT/OR.)
			l, lok := estimateSelectivity(ts, t.L)
			r, rok := estimateSelectivity(ts, t.R)
			if !lok || !rok {
				return 1, false
			}
			return clampSel01(l * r), true
		case "OR":
			l, lok := estimateSelectivity(ts, t.L)
			r, rok := estimateSelectivity(ts, t.R)
			if !lok || !rok {
				// An unknown branch may keep every row.
				return 1, false
			}
			return clampSel01(l + r - l*r), true
		case "=", "<>", "<", "<=", ">", ">=":
			return cmpSelectivity(ts, t)
		}
	case *sqlparse.Unary:
		if t.Op == "NOT" {
			if s, known := estimateSelectivity(ts, t.X); known {
				return clampSel01(1 - s), true
			}
		}
	case *sqlparse.IsNullExpr:
		if id, ok := t.X.(*sqlparse.Ident); ok && ts != nil {
			if s, ok := ts.NullSelectivity(id.Name, t.Not); ok {
				return s, true
			}
		}
		if t.Not {
			return 1 - defaultNullSel, true
		}
		return defaultNullSel, true
	case *sqlparse.LikeExpr:
		if t.Not {
			return 1 - defaultLikeSel, true
		}
		return defaultLikeSel, true
	case *sqlparse.InExpr:
		// IN is a disjunction of equalities on the same column: sum the
		// per-value estimates (the values are disjoint events).
		id, idOK := t.X.(*sqlparse.Ident)
		sel := 0.0
		for _, item := range t.List {
			s := defaultEqSel
			if v, isConst := constValue(item); idOK && isConst && ts != nil {
				if est, statOK := ts.CmpSelectivity(id.Name, "=", v); statOK {
					s = est
				}
			}
			sel += s
		}
		if t.Not {
			return clampSel01(1 - sel), true
		}
		return clampSel01(sel), true
	}
	return 1, false
}

// cmpSelectivity estimates `col op const` (either operand order);
// known=false for column-to-column or computed comparisons.
func cmpSelectivity(ts *stats.TableStats, t *sqlparse.Binary) (float64, bool) {
	id, lok := t.L.(*sqlparse.Ident)
	v, rconst := constValue(t.R)
	op := t.Op
	if !lok || !rconst {
		// Try the flipped orientation: const op col.
		id, lok = t.R.(*sqlparse.Ident)
		v, rconst = constValue(t.L)
		if !lok || !rconst {
			return 1, false
		}
		op = flipCmp(op)
	}
	return colCmpSelectivity(ts, id.Name, op, v), true
}

// colCmpSelectivity estimates `col op v` from the statistics, or with
// the default for op when they cannot price it.
func colCmpSelectivity(ts *stats.TableStats, col, op string, v sqltypes.Value) float64 {
	if ts != nil {
		if s, ok := ts.CmpSelectivity(col, op, v); ok {
			return s
		}
	}
	switch op {
	case "=":
		return defaultEqSel
	case "<>":
		return 1 - defaultEqSel
	default:
		return defaultRangeSel
	}
}

// constValue evaluates simple constant expressions (literals and negated
// number literals) without a binder.
func constValue(e sqlparse.Expr) (sqltypes.Value, bool) {
	switch t := e.(type) {
	case *sqlparse.NumberLit:
		if t.IsFloat {
			return sqltypes.NewFloat(t.F), true
		}
		return sqltypes.NewInt(t.I), true
	case *sqlparse.StringLit:
		return sqltypes.NewString(t.S), true
	case *sqlparse.NullLit:
		return sqltypes.Null, true
	case *sqlparse.Unary:
		if t.Op == "-" {
			if n, ok := t.X.(*sqlparse.NumberLit); ok {
				if n.IsFloat {
					return sqltypes.NewFloat(-n.F), true
				}
				return sqltypes.NewInt(-n.I), true
			}
		}
	}
	return sqltypes.Null, false
}

// flipCmp mirrors a comparison operator for the const-op-column form.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

func clampSel01(s float64) float64 {
	switch {
	case s < 0:
		return 0
	case s > 1:
		return 1
	}
	return s
}

// scaleEst applies a selectivity to a row estimate, keeping at least one
// row so downstream ratios stay finite.
func scaleEst(est int64, sel float64) int64 {
	if est <= 0 || sel >= 1 {
		return est
	}
	scaled := int64(float64(est)*sel + 0.5)
	if scaled < 1 {
		return 1
	}
	return scaled
}

// keysNDV estimates the number of distinct join-key combinations a
// relation produces: the product of the key columns' NDVs (from the
// relation's base-table statistics), capped by the relation's estimated
// row count. Returns 0 when unknown (derived inputs, no ANALYZE, or a
// missing column).
func keysNDV(rel *relation, keys []*sqlparse.Ident) int64 {
	if rel.stats == nil {
		return 0
	}
	ndv := int64(1)
	for _, k := range keys {
		n := rel.stats.ColumnNDV(k.Name)
		if n <= 0 {
			return 0
		}
		// Saturating product: NDVs multiply fast.
		if ndv > 1<<31 || n > 1<<31 {
			ndv = 1 << 62
		} else {
			ndv *= n
		}
	}
	if rel.est > 0 && ndv > rel.est {
		ndv = rel.est
	}
	return ndv
}

// nextPow2 rounds up to a power of two (minimum 1).
func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}
