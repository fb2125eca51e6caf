package exec

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// AggState is the accumulation contract of aggregate functions — identical
// for built-ins (COUNT, SUM, MIN, MAX, AVG) and user-defined aggregates,
// which is what lets the engine parallelize UDAs "just like built-in
// aggregates" (paper Section 2.3.4): partial states accumulate per worker
// and Merge combines them. Add must not keep args: the caller reuses the
// slice for the next row. Result does not change the state: it may be
// called more than once, and a Merge of a fresh state in between changes
// nothing.
//
// A state may also implement BatchAdder; the executor then feeds it whole
// vectors and never boxes a cell.
type AggState interface {
	Add(args []sqltypes.Value) error
	Merge(other AggState) error
	Result() (sqltypes.Value, error)
}

// BatchAdder is the optional vector form of AggState.Add. AddBatch must
// leave the state exactly as calling Add once per entry of rows, in order,
// with the cells of args at that physical row would (an error may come
// after some of the rows were added; the statement fails either way). args
// holds one vector per argument in any form but lazy — typed, dictionary,
// packed or generic, Vector.Value reads them all — and belongs to the
// executor: neither the vectors nor rows may be kept after the call.
type BatchAdder interface {
	AddBatch(args []*vec.Vector, rows []int) error
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
	if v.K == sqltypes.KindFloat || s.isFloat {
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		s.addFloat(f)
		return nil
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	s.addInt(n)
	return nil
}

func (s *sumState) addInt(n int64) {
	s.seen = true
	if s.isFloat {
		s.f += float64(n)
	} else {
		s.i += n
	}
}

func (s *sumState) addFloat(f float64) {
	s.seen = true
	if !s.isFloat {
		s.isFloat = true
		s.f = float64(s.i)
	}
	s.f += f
}

func (s *sumState) Merge(o AggState) error {
	other := o.(*sumState)
	switch {
	case !other.seen:
	case other.isFloat:
		s.addFloat(other.f)
	default:
		s.addInt(other.i)
	}
	return nil
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

// --- Grouped states: one aggregate, every group of a table ---

// groupedAgg holds the states of one aggregate for all groups of a table,
// indexed by group id, and updates them a vector at a time. The built-ins
// keep their states by value in one array and read typed argument arrays
// directly; any other aggregate keeps one AggState per group.
type groupedAgg interface {
	// grow adds fresh states until there are n.
	grow(n int)
	// reset makes group g's state fresh again.
	reset(g int32)
	// state is group g's state, for Merge and Result.
	state(g int32) AggState
	// update adds the cells of args at physical row rows[k] to group
	// gids[k], for every k in order; when gids is nil every row belongs to
	// group one. args are not lazy.
	update(gids []int32, one int32, args []*vec.Vector, rows []int) error
}

// newGroupedAgg picks the grouped form of an aggregate from the state its
// factory makes.
func newGroupedAgg(spec AggSpec) groupedAgg {
	switch proto := spec.Factory().(type) {
	case *countState:
		return &countAgg{}
	case *sumState:
		return &sumAgg{}
	case *minmaxState:
		return &minmaxAgg{stateArray[minmaxState, *minmaxState]{proto: *proto}}
	case *avgState:
		return &avgAgg{}
	default:
		// The prototype is the first group's state, so a global aggregate
		// makes one state per input, in input order.
		return &udaAgg{factory: spec.Factory, states: []AggState{proto}}
	}
}

// groupOf is the group of the k-th row of an update.
func groupOf(gids []int32, one int32, k int) int32 {
	if gids == nil {
		return one
	}
	return gids[k]
}

// stateArray is the states of a built-in, by value: no allocation and no
// interface per group.
type stateArray[S any, P interface {
	*S
	AggState
}] struct {
	proto  S // a fresh state
	states []S
}

func (a *stateArray[S, P]) grow(n int) {
	for len(a.states) < n {
		a.states = append(a.states, a.proto)
	}
}
func (a *stateArray[S, P]) reset(g int32)          { a.states[g] = a.proto }
func (a *stateArray[S, P]) state(g int32) AggState { return P(&a.states[g]) }

// addBoxed is the update every kernel falls back to for argument vectors
// it has no typed loop for: the cells are boxed (not allocated) into one
// scratch slice and go through AggState.Add.
func addBoxed(a groupedAgg, gids []int32, one int32, args []*vec.Vector, rows []int, scratch *[]sqltypes.Value) error {
	if cap(*scratch) < len(args) {
		*scratch = make([]sqltypes.Value, len(args))
	}
	vals := (*scratch)[:len(args)]
	for k, r := range rows {
		for i, c := range args {
			v, err := c.Value(r)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := a.state(groupOf(gids, one, k)).Add(vals); err != nil {
			return err
		}
	}
	return nil
}

// flatNumbers reports whether v is a flat INT or FLOAT column, the forms
// the numeric kernels read without boxing.
func flatNumbers(args []*vec.Vector) (ints []int64, floats []float64) {
	if len(args) != 1 {
		return nil, nil
	}
	v := args[0]
	if v.Codes != nil || v.Vals != nil {
		return nil, nil
	}
	if v.Kind == sqltypes.KindInt {
		return v.Ints, nil
	}
	return nil, v.Floats
}

type countAgg struct {
	stateArray[countState, *countState]
}

func (a *countAgg) update(gids []int32, one int32, args []*vec.Vector, rows []int) error {
	switch {
	case len(args) == 0 && gids == nil: // COUNT(*) of one group: the batch's length
		a.states[one].n += int64(len(rows))
	case len(args) == 0:
		for _, g := range gids {
			a.states[g].n++
		}
	default: // COUNT(x): the null bitmap decides, in every form
		v := args[0]
		for k, r := range rows {
			if !v.IsNull(r) {
				a.states[groupOf(gids, one, k)].n++
			}
		}
	}
	return nil
}

type sumAgg struct {
	stateArray[sumState, *sumState]
	scratch []sqltypes.Value
}

func (a *sumAgg) update(gids []int32, one int32, args []*vec.Vector, rows []int) error {
	ints, floats := flatNumbers(args)
	switch {
	case ints != nil:
		v := args[0]
		for k, r := range rows {
			if !v.IsNull(r) {
				a.states[groupOf(gids, one, k)].addInt(ints[r])
			}
		}
	case floats != nil:
		v := args[0]
		for k, r := range rows {
			if !v.IsNull(r) {
				a.states[groupOf(gids, one, k)].addFloat(floats[r])
			}
		}
	default:
		return addBoxed(a, gids, one, args, rows, &a.scratch)
	}
	return nil
}

type avgAgg struct {
	stateArray[avgState, *avgState]
	scratch []sqltypes.Value
}

func (a *avgAgg) update(gids []int32, one int32, args []*vec.Vector, rows []int) error {
	ints, floats := flatNumbers(args)
	if ints == nil && floats == nil {
		return addBoxed(a, gids, one, args, rows, &a.scratch)
	}
	v := args[0]
	for k, r := range rows {
		if v.IsNull(r) {
			continue
		}
		s := &a.states[groupOf(gids, one, k)]
		if ints != nil {
			s.sum += float64(ints[r])
		} else {
			s.sum += floats[r]
		}
		s.n++
	}
	return nil
}

type minmaxAgg struct {
	stateArray[minmaxState, *minmaxState]
}

// update compares INT cells with an INT best in place and boxes everything
// else: MIN and MAX order values of any kind (sqltypes.Compare).
func (a *minmaxAgg) update(gids []int32, one int32, args []*vec.Vector, rows []int) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: MIN/MAX take one argument")
	}
	v := args[0]
	ints, _ := flatNumbers(args)
	var box [1]sqltypes.Value
	for k, r := range rows {
		if v.IsNull(r) {
			continue
		}
		s := &a.states[groupOf(gids, one, k)]
		if ints != nil && s.seen && s.best.K == sqltypes.KindInt {
			if x := ints[r]; (s.max && x > s.best.I) || (!s.max && x < s.best.I) {
				s.best.I = x
			}
			continue
		}
		val, err := v.Value(r)
		if err != nil {
			return err
		}
		box[0] = val
		if err := s.Add(box[:]); err != nil {
			return err
		}
	}
	return nil
}

// udaAgg holds one AggState per group: user-defined aggregates, and any
// state the kernels above do not know. A state that implements BatchAdder
// takes each run of consecutive rows of one group as one call.
type udaAgg struct {
	factory AggFactory
	states  []AggState
	scratch []sqltypes.Value
}

func (a *udaAgg) grow(n int) {
	for len(a.states) < n {
		a.states = append(a.states, a.factory())
	}
}
func (a *udaAgg) reset(g int32)          { a.states[g] = a.factory() }
func (a *udaAgg) state(g int32) AggState { return a.states[g] }

func (a *udaAgg) update(gids []int32, one int32, args []*vec.Vector, rows []int) error {
	for lo := 0; lo < len(rows); {
		g, hi := groupOf(gids, one, lo), len(rows)
		if gids != nil {
			for hi = lo + 1; hi < len(rows) && gids[hi] == g; hi++ {
			}
		}
		var err error
		if ba, ok := a.states[g].(BatchAdder); ok {
			err = ba.AddBatch(args, rows[lo:hi])
		} else {
			err = addBoxed(a, nil, g, args, rows[lo:hi], &a.scratch)
		}
		if err != nil {
			return &groupError{g: g, err: err}
		}
		lo = hi
	}
	return nil
}

// groupError is a user-defined state's error with the group it came from
// and, once the feed has seen it, the aggregate's name: the operator
// reports both, the group by its key.
type groupError struct {
	agg string
	g   int32
	err error
}

func (e *groupError) Error() string { return e.err.Error() }
func (e *groupError) Unwrap() error { return e.err }

// --- The feed: batches in, key and argument vectors out ---

// aggFeed is what the hash, stream and global aggregates share: the
// compiled group-key and argument expressions of one input chain and the
// grouped states they update.
type aggFeed struct {
	groupBy []expr.Expr
	specs   []AggSpec
	keyProj *expr.Projection
	argProj []*expr.Projection
	aggs    []groupedAgg
	args    [][]*vec.Vector // evalArgs' result: the current batch's argument vectors
}

func newAggFeed(groupBy []expr.Expr, specs []AggSpec) aggFeed {
	f := aggFeed{
		groupBy: groupBy,
		specs:   specs,
		keyProj: expr.CompileProjection(groupBy),
		argProj: make([]*expr.Projection, len(specs)),
		aggs:    make([]groupedAgg, len(specs)),
		args:    make([][]*vec.Vector, len(specs)),
	}
	for i, s := range specs {
		f.argProj[i] = expr.CompileProjection(s.Args)
		f.aggs[i] = newGroupedAgg(s)
	}
	return f
}

// markCols marks the input columns the group-by and argument expressions
// read: what a spilled row keeps.
func (f *aggFeed) markCols(cols []bool) {
	for _, e := range f.groupBy {
		expr.MarkCols(e, cols)
	}
	for _, s := range f.specs {
		for _, e := range s.Args {
			expr.MarkCols(e, cols)
		}
	}
}

// grow adds fresh states to every aggregate until there are n groups.
func (f *aggFeed) grow(n int) {
	for _, a := range f.aggs {
		a.grow(n)
	}
}

// evalArgs evaluates every aggregate's argument columns over b's selected
// rows, for the updates that follow.
func (f *aggFeed) evalArgs(b *vec.Batch) (err error) {
	for i, p := range f.argProj {
		if f.args[i], err = evalDecoded(p, b); err != nil {
			return err
		}
	}
	return nil
}

func evalDecoded(p *expr.Projection, b *vec.Batch) ([]*vec.Vector, error) {
	cols, err := p.Eval(b)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if err := c.Materialize(); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// update adds the evaluated arguments at the given rows: row rows[k] to
// group gids[k], or all to group one when gids is nil. A user-defined
// state's error comes back as a *groupError.
func (f *aggFeed) update(gids []int32, one int32, rows []int) error {
	for i, a := range f.aggs {
		if err := a.update(gids, one, f.args[i], rows); err != nil {
			if ge, ok := err.(*groupError); ok {
				ge.agg = f.specs[i].Name
			}
			return err
		}
	}
	return nil
}

// render writes group g's aggregate results to out.
func (f *aggFeed) render(g int32, out []sqltypes.Value) error {
	for i, a := range f.aggs {
		v, err := a.state(g).Result()
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// named gives a state's error the context the state does not have: which
// aggregate, fed which group (key renders a group's key).
func named(err error, key func(g int32) string) error {
	if ge, ok := err.(*groupError); ok {
		return fmt.Errorf("exec: %s over group %s: %w", ge.agg, key(ge.g), ge.err)
	}
	return err
}

// --- Stream aggregation ---

// StreamAggregate evaluates GROUP BY over input already sorted by the
// group-by expressions, emitting each group as soon as it completes — the
// non-blocking aggregation strategy the paper's consensus pipeline needs
// ("the database needs to use a non-blocking, parallelized query plan and
// to process the alignments in order", Section 5.3.3). It works a batch at
// a time: a group boundary is a row whose key differs from its
// predecessor's, each run of equal keys is one update of the open group's
// states, and the groups a batch completes are packed before the next
// batch is pulled.
type StreamAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Child   Operator

	feed    aggFeed
	open    bool          // a group is accumulating in state 0
	openKey sqltypes.Row  // its key, boxed for output
	lastKey []*vec.Vector // the key of the last row seen, one row per column
	keyBuf  [2][]byte
	pending []sqltypes.Value // completed groups, width values each
	pos     int
	done    bool
	out     rowPacker
}

// Open opens the child.
func (s *StreamAggregate) Open(ctx *Context) error {
	s.feed = newAggFeed(s.GroupBy, s.Aggs)
	s.feed.grow(1)
	s.out.reset()
	s.open, s.done = false, false
	s.openKey = make(sqltypes.Row, len(s.GroupBy))
	s.lastKey = nil
	s.pending, s.pos = s.pending[:0], 0
	return s.Child.Open(ctx)
}

// NextBatch packs the groups the input has completed so far: it pulls input
// batches until one completes a group, so the consumer works on finished
// groups while later ones are still to come.
func (s *StreamAggregate) NextBatch() (*vec.Batch, error) {
	for s.pos >= len(s.pending) {
		if s.done {
			return nil, nil
		}
		s.pending, s.pos = s.pending[:0], 0
		b, err := s.Child.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.done = true
			// Without GROUP BY there is one group, also over no rows.
			if s.open || len(s.GroupBy) == 0 {
				err = s.finish()
			}
		} else if b.Len() > 0 {
			err = s.consume(b)
		}
		if err != nil {
			return nil, err
		}
	}
	s.out.done = false // the last batch ended where pending did, not the stream
	return s.out.next(s.nextPending)
}

// nextPending serves the next completed group.
func (s *StreamAggregate) nextPending() (sqltypes.Row, bool, error) {
	if s.pos >= len(s.pending) {
		return nil, false, nil
	}
	s.pos += len(s.GroupBy) + len(s.Aggs)
	return s.pending[s.pos-len(s.GroupBy)-len(s.Aggs) : s.pos], true, nil
}

// PruneColumns does not reach the child: the aggregate reads the columns
// of its own expressions whatever its consumer reads.
func (s *StreamAggregate) PruneColumns(needed []bool) { s.out.needed = needed }

// consume folds one batch: runs of equal keys update the open group, a
// boundary completes it.
func (s *StreamAggregate) consume(b *vec.Batch) error {
	rows := b.Sel
	keys, err := evalDecoded(s.feed.keyProj, b)
	if err == nil {
		err = s.feed.evalArgs(b)
	}
	if err != nil {
		return err
	}
	lo := 0
	for lo < len(rows) {
		// The run of rows[lo] ends before the first row with another key.
		hi := lo + 1
		for ; hi < len(rows); hi++ {
			if eq, err := keysEqual(keys, rows[hi-1], keys, rows[hi], &s.keyBuf); err != nil {
				return err
			} else if !eq {
				break
			}
		}
		continues := false
		if lo == 0 && s.open {
			if continues, err = keysEqual(s.lastKey, 0, keys, rows[0], &s.keyBuf); err != nil {
				return err
			}
		}
		if !continues {
			if s.open {
				if err := s.finish(); err != nil {
					return err
				}
			}
			s.open = true
			for i, c := range keys {
				if s.openKey[i], err = c.Value(rows[lo]); err != nil {
					return err
				}
			}
		}
		if err := s.feed.update(nil, 0, rows[lo:hi]); err != nil {
			return named(err, func(int32) string { return fmt.Sprint(s.openKey) })
		}
		lo = hi
	}
	// The next batch's first row is compared with this one's last.
	if s.lastKey == nil {
		s.lastKey = make([]*vec.Vector, len(keys))
	}
	for i, c := range keys {
		s.lastKey[i] = &vec.Vector{}
		if err := s.lastKey[i].AppendRows(c, rows[len(rows)-1:]); err != nil {
			return err
		}
	}
	return nil
}

// finish renders the open group to pending and frees its states.
func (s *StreamAggregate) finish() error {
	n := len(s.pending)
	s.pending = append(s.pending, s.openKey...)
	for range s.Aggs {
		s.pending = append(s.pending, sqltypes.Null)
	}
	if err := s.feed.render(0, s.pending[n+len(s.openKey):]); err != nil {
		return err
	}
	for _, a := range s.feed.aggs {
		a.reset(0)
	}
	s.open = false
	return nil
}

// Close closes the child.
func (s *StreamAggregate) Close() error { return s.Child.Close() }
