package exec

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sqltypes"
)

// AggState is the accumulation contract of aggregate functions — identical
// for built-ins (COUNT, SUM, MIN, MAX, AVG) and user-defined aggregates,
// which is what lets the engine parallelize UDAs "just like built-in
// aggregates" (paper Section 2.3.4): partial states accumulate per worker
// and Merge combines them. Add must not keep args: the caller reuses the
// slice for the next row.
type AggState interface {
	Add(args []sqltypes.Value) error
	Merge(other AggState) error
	Result() (sqltypes.Value, error)
}

// AggFactory creates a fresh accumulator.
type AggFactory func() AggState

// AggSpec binds an aggregate function to its argument expressions.
type AggSpec struct {
	Name    string
	Factory AggFactory
	Args    []expr.Expr // empty for COUNT(*)
}

// --- Built-in aggregates ---

type countState struct{ n int64 }

func (s *countState) Add(args []sqltypes.Value) error {
	// COUNT(*) has no args; COUNT(x) skips NULLs.
	if len(args) > 0 && args[0].IsNull() {
		return nil
	}
	s.n++
	return nil
}
func (s *countState) Merge(o AggState) error { s.n += o.(*countState).n; return nil }
func (s *countState) Result() (sqltypes.Value, error) {
	return sqltypes.NewInt(s.n), nil
}

type sumState struct {
	isFloat bool
	i       int64
	f       float64
	seen    bool
}

func (s *sumState) Add(args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: SUM takes one argument")
	}
	v := args[0]
	if v.IsNull() {
		return nil
	}
	s.seen = true
	if v.K == sqltypes.KindFloat || s.isFloat {
		if !s.isFloat {
			s.isFloat = true
			s.f = float64(s.i)
		}
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		s.f += f
		return nil
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	s.i += n
	return nil
}
func (s *sumState) Merge(o AggState) error {
	other := o.(*sumState)
	if !other.seen {
		return nil
	}
	if other.isFloat {
		return s.Add([]sqltypes.Value{sqltypes.NewFloat(other.f)})
	}
	return s.Add([]sqltypes.Value{sqltypes.NewInt(other.i)})
}
func (s *sumState) Result() (sqltypes.Value, error) {
	if !s.seen {
		return sqltypes.Null, nil
	}
	if s.isFloat {
		return sqltypes.NewFloat(s.f), nil
	}
	return sqltypes.NewInt(s.i), nil
}

type minmaxState struct {
	max  bool
	best sqltypes.Value
	seen bool
}

func (s *minmaxState) Add(args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: MIN/MAX take one argument")
	}
	v := args[0]
	if v.IsNull() {
		return nil
	}
	if !s.seen {
		s.best, s.seen = v, true
		return nil
	}
	c := sqltypes.Compare(v, s.best)
	if (s.max && c > 0) || (!s.max && c < 0) {
		s.best = v
	}
	return nil
}
func (s *minmaxState) Merge(o AggState) error {
	other := o.(*minmaxState)
	if !other.seen {
		return nil
	}
	return s.Add([]sqltypes.Value{other.best})
}
func (s *minmaxState) Result() (sqltypes.Value, error) {
	if !s.seen {
		return sqltypes.Null, nil
	}
	return s.best, nil
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: AVG takes one argument")
	}
	if args[0].IsNull() {
		return nil
	}
	f, err := args[0].AsFloat()
	if err != nil {
		return err
	}
	s.sum += f
	s.n++
	return nil
}
func (s *avgState) Merge(o AggState) error {
	other := o.(*avgState)
	s.sum += other.sum
	s.n += other.n
	return nil
}
func (s *avgState) Result() (sqltypes.Value, error) {
	if s.n == 0 {
		return sqltypes.Null, nil
	}
	return sqltypes.NewFloat(s.sum / float64(s.n)), nil
}

// BuiltinAggregate resolves a built-in aggregate by name, or nil.
func BuiltinAggregate(name string) AggFactory {
	switch strings.ToLower(name) {
	case "count":
		return func() AggState { return &countState{} }
	case "sum":
		return func() AggState { return &sumState{} }
	case "min":
		return func() AggState { return &minmaxState{} }
	case "max":
		return func() AggState { return &minmaxState{max: true} }
	case "avg":
		return func() AggState { return &avgState{} }
	}
	return nil
}

// --- Hash aggregation ---

type aggGroup struct {
	vals   sqltypes.Row // group-by values
	states []AggState
}

// HashAggregate evaluates GROUP BY with aggregate functions by building an
// in-memory hash table. Output rows are the group-by values followed by
// the aggregate results. With no group-by expressions it produces the
// single global aggregate row.
type HashAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Child   Operator

	groups map[string]*aggGroup
	order  []string
	pos    int
	out    sqltypes.Row
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
	if err := accumulate(h.Child, h.GroupBy, h.Aggs, h.groups, &h.order); err != nil {
		return err
	}
	if len(h.GroupBy) == 0 && len(h.groups) == 0 {
		// Global aggregate over an empty input still yields one row.
		g := &aggGroup{states: newStates(h.Aggs)}
		h.groups[""] = g
		h.order = append(h.order, "")
	}
	h.out = make(sqltypes.Row, len(h.GroupBy)+len(h.Aggs))
	return nil
}

func newStates(aggs []AggSpec) []AggState {
	states := make([]AggState, len(aggs))
	for i, a := range aggs {
		states[i] = a.Factory()
	}
	return states
}

// accumulate drains an operator into a group table.
func accumulate(child Operator, groupBy []expr.Expr, aggs []AggSpec, groups map[string]*aggGroup, order *[]string) error {
	gvals := make(sqltypes.Row, len(groupBy))
	var keyBuf []byte
	for {
		row, ok, err := child.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i, e := range groupBy {
			v, err := e.Eval(row)
			if err != nil {
				return err
			}
			gvals[i] = v
		}
		keyBuf, err = appendGroupKey(keyBuf[:0], gvals)
		if err != nil {
			return err
		}
		g, okg := groups[string(keyBuf)]
		if !okg {
			g = &aggGroup{vals: gvals.Clone(), states: newStates(aggs)}
			groups[string(keyBuf)] = g
			if order != nil {
				*order = append(*order, string(keyBuf))
			}
		}
		for i, a := range aggs {
			args := make([]sqltypes.Value, len(a.Args))
			for j, ae := range a.Args {
				v, err := ae.Eval(row)
				if err != nil {
					return err
				}
				args[j] = v
			}
			if err := g.states[i].Add(args); err != nil {
				return err
			}
		}
	}
}

// Next emits one group.
func (h *HashAggregate) Next() (sqltypes.Row, bool, error) {
	if h.pos >= len(h.order) {
		return nil, false, nil
	}
	g := h.groups[h.order[h.pos]]
	h.pos++
	return renderGroup(h.out, g)
}

func renderGroup(out sqltypes.Row, g *aggGroup) (sqltypes.Row, bool, error) {
	copy(out, g.vals)
	for i, st := range g.states {
		v, err := st.Result()
		if err != nil {
			return nil, false, err
		}
		out[len(g.vals)+i] = v
	}
	return out, true, nil
}

// Close releases the hash table.
func (h *HashAggregate) Close() error {
	h.groups = nil
	h.order = nil
	return nil
}

// StreamAggregate evaluates GROUP BY over input already sorted by the
// group-by expressions, emitting each group as soon as it completes — the
// non-blocking aggregation strategy the paper's consensus pipeline needs
// ("the database needs to use a non-blocking, parallelized query plan and
// to process the alignments in order", Section 5.3.3).
type StreamAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Child   Operator

	cur     *aggGroup
	curKey  []byte
	done    bool
	out     sqltypes.Row
	pending sqltypes.Row
}

// Open opens the child.
func (s *StreamAggregate) Open(ctx *Context) error {
	s.cur, s.curKey, s.done, s.pending = nil, nil, false, nil
	s.out = make(sqltypes.Row, len(s.GroupBy)+len(s.Aggs))
	return s.Child.Open(ctx)
}

// Next emits the next completed group.
func (s *StreamAggregate) Next() (sqltypes.Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	gvals := make(sqltypes.Row, len(s.GroupBy))
	for {
		row, ok, err := s.Child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.cur != nil {
				g := s.cur
				s.cur = nil
				return renderGroup(s.out, g)
			}
			if len(s.GroupBy) == 0 {
				return renderGroup(s.out, &aggGroup{states: newStates(s.Aggs)})
			}
			return nil, false, nil
		}
		for i, e := range s.GroupBy {
			v, err := e.Eval(row)
			if err != nil {
				return nil, false, err
			}
			gvals[i] = v
		}
		key, err := appendGroupKey(nil, gvals)
		if err != nil {
			return nil, false, err
		}
		var completed *aggGroup
		if s.cur == nil || string(key) != string(s.curKey) {
			completed = s.cur
			s.cur = &aggGroup{vals: gvals.Clone(), states: newStates(s.Aggs)}
			s.curKey = key
		}
		for i, a := range s.Aggs {
			args := make([]sqltypes.Value, len(a.Args))
			for j, ae := range a.Args {
				v, err := ae.Eval(row)
				if err != nil {
					return nil, false, err
				}
				args[j] = v
			}
			if err := s.cur.states[i].Add(args); err != nil {
				return nil, false, err
			}
		}
		if completed != nil {
			return renderGroup(s.out, completed)
		}
	}
}

// Close closes the child.
func (s *StreamAggregate) Close() error { return s.Child.Close() }
