package exec

import (
	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// HashAggregate is the reference aggregation of the tests: a row at a
// time, boxed values, a map keyed by the encoded group key, one AggState
// per group and aggregate fed through Add. It is what the batch-fed
// operators (SpillableAggregate, StreamAggregate) must agree with. Output
// rows are the group-by values followed by the aggregate results, groups in
// first-seen order; with no group-by expressions it produces the single
// global aggregate row. Like every row-internal operator it reads its child
// through a RowCursor and emits through a rowPacker.
type HashAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Child   Operator

	groups map[string]*aggGroup
	order  []string
	pos    int
	out    sqltypes.Row
	pack   rowPacker
}

type aggGroup struct {
	vals   sqltypes.Row // group-by values
	states []AggState
}

func newStates(aggs []AggSpec) []AggState {
	states := make([]AggState, len(aggs))
	for i, a := range aggs {
		states[i] = a.Factory()
	}
	return states
}

// Open drains the child and builds the hash table.
func (h *HashAggregate) Open(ctx *Context) error {
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	defer h.Child.Close()
	h.groups = make(map[string]*aggGroup)
	h.order = h.order[:0]
	h.pos = 0
	h.pack.reset()
	h.out = make(sqltypes.Row, len(h.GroupBy)+len(h.Aggs))
	if len(h.GroupBy) == 0 {
		// Global aggregate over an empty input still yields one row.
		h.groups[""] = &aggGroup{states: newStates(h.Aggs)}
		h.order = append(h.order, "")
	}
	gvals := make(sqltypes.Row, len(h.GroupBy))
	in := RowCursor{Op: h.Child}
	for {
		row, ok, err := in.Next()
		if err != nil || !ok {
			return err
		}
		for i, e := range h.GroupBy {
			if gvals[i], err = e.Eval(row); err != nil {
				return err
			}
		}
		key, err := appendGroupKey(nil, gvals)
		if err != nil {
			return err
		}
		g, ok := h.groups[string(key)]
		if !ok {
			g = &aggGroup{vals: gvals.Clone(), states: newStates(h.Aggs)}
			h.groups[string(key)] = g
			h.order = append(h.order, string(key))
		}
		for i, a := range h.Aggs {
			args := make([]sqltypes.Value, len(a.Args))
			for j, ae := range a.Args {
				if args[j], err = ae.Eval(row); err != nil {
					return err
				}
			}
			if err := g.states[i].Add(args); err != nil {
				return err
			}
		}
	}
}

func (h *HashAggregate) NextBatch() (*vec.Batch, error) { return h.pack.next(h.next) }
func (h *HashAggregate) PruneColumns([]bool)            {}

// next emits one group.
func (h *HashAggregate) next() (sqltypes.Row, bool, error) {
	if h.pos >= len(h.order) {
		return nil, false, nil
	}
	g := h.groups[h.order[h.pos]]
	h.pos++
	copy(h.out, g.vals)
	for i, st := range g.states {
		v, err := st.Result()
		if err != nil {
			return nil, false, err
		}
		h.out[len(g.vals)+i] = v
	}
	return h.out, true, nil
}

// Close releases the hash table.
func (h *HashAggregate) Close() error {
	h.groups, h.order = nil, nil
	return nil
}

// appendGroupKey renders group-by values into a comparable key: equal
// keys are equal groups.
func appendGroupKey(dst []byte, vals sqltypes.Row) ([]byte, error) {
	var err error
	for _, v := range vals {
		if dst, err = appendValueKey(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
