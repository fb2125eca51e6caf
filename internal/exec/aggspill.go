package exec

import (
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// Spillable hash aggregation: the two-phase GROUP BY operator the
// planner now emits. Each input (one per worker in the parallel plan)
// accumulates into an aggTable whose groups are hash-partitioned; when
// the table exceeds its memory budget, whole partitions freeze — new
// keys for a frozen partition append their raw input rows to a temp run
// file instead of growing the table, while the partition's existing
// states stay resident and stop growing. Draining emits the in-memory
// groups first, then re-aggregates each frozen partition from disk
// (level-seeded re-partitioning, depth-capped like the join) and merges
// the retained states back in via AggState.Merge — so user-defined
// aggregates spill exactly like COUNT and SUM, without requiring states
// to be serializable.

// DefaultAggPartitions is the spill fan-out when the caller does not set
// one (the planner's default aliases this).
const DefaultAggPartitions = 32

// maxAggSpillDepth bounds recursion: a partition still over budget after
// this many re-partitionings (e.g. one giant group that no hash can
// subdivide) is aggregated fully in memory.
const maxAggSpillDepth = 4

// keyedGroup pairs a group with its encoded key so retained states can
// be merged into a re-aggregation table at the next level.
type keyedGroup struct {
	key string
	g   *aggGroup
}

// aggTable is one worker's partial-aggregate hash table with
// budget-triggered partition freezing.
type aggTable struct {
	groupBy []expr.Expr
	aggs    []AggSpec
	parts   int
	level   int
	budget  int64 // 0 = unlimited
	spill   SpillStore
	stats   *AggStats
	prof    *obs.OpProfile

	groups    map[string]*aggGroup
	order     []string
	partBytes []int64
	bytes     int64
	frozen    []bool
	files     []SpillFile
	nFrozen   int

	gvals  sqltypes.Row
	keyBuf []byte
}

func newAggTable(groupBy []expr.Expr, aggs []AggSpec, parts, level int, budget int64, spill SpillStore, stats *AggStats, prof *obs.OpProfile) *aggTable {
	return &aggTable{
		groupBy:   groupBy,
		aggs:      aggs,
		parts:     parts,
		level:     level,
		budget:    budget,
		spill:     spill,
		stats:     stats,
		prof:      prof,
		groups:    make(map[string]*aggGroup),
		partBytes: make([]int64, parts),
		frozen:    make([]bool, parts),
		files:     make([]SpillFile, parts),
		gvals:     make(sqltypes.Row, len(groupBy)),
	}
}

// partitionHash distributes a group-key encoding onto partitions; level
// seeds the hash so recursive re-partitioning shuffles the keys that
// collided at the previous level (FNV-1a with a level-salted offset basis).
func partitionHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level)+1)*0x9E3779B97F4A7C15
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// groupMemBytes approximates the retained size of one group entry.
func groupMemBytes(vals sqltypes.Row, keyLen, nStates int) int64 {
	return rowMemBytes(vals) + int64(keyLen) + int64(nStates)*64 + 48
}

// add routes one input row: to the in-memory table, or — when its
// partition is frozen — raw to the partition's spill file.
func (t *aggTable) add(row sqltypes.Row) error {
	for i, e := range t.groupBy {
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		t.gvals[i] = v
	}
	var err error
	t.keyBuf, err = appendGroupKey(t.keyBuf[:0], t.gvals)
	if err != nil {
		return err
	}
	if t.nFrozen > 0 {
		p := int(partitionHash(t.keyBuf, t.level) % uint64(t.parts))
		if t.frozen[p] {
			if err := t.files[p].Append(row); err != nil {
				return err
			}
			t.stats.SpilledRows.Add(1)
			t.prof.AddSpill(0, 0, 1)
			return nil
		}
	}
	g, ok := t.groups[string(t.keyBuf)]
	if !ok {
		g = &aggGroup{vals: t.gvals.Clone(), states: newStates(t.aggs)}
		key := string(t.keyBuf)
		t.groups[key] = g
		t.order = append(t.order, key)
		p := int(partitionHash(t.keyBuf, t.level) % uint64(t.parts))
		sz := groupMemBytes(g.vals, len(key), len(t.aggs))
		t.partBytes[p] += sz
		t.bytes += sz
		// Growth comes from new groups, so the budget check lives on the
		// insert path: each over-budget insert freezes one more partition
		// until every future new key streams to disk.
		if t.budget > 0 && t.bytes > t.budget {
			if err := t.freezeLargest(); err != nil {
				return err
			}
		}
	}
	return t.accumulate(g, row)
}

// accumulate evaluates the aggregate arguments and feeds the states.
func (t *aggTable) accumulate(g *aggGroup, row sqltypes.Row) error {
	for i, a := range t.aggs {
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
	return nil
}

// freezeLargest freezes the biggest unfrozen partition: from here on its
// new keys spill raw rows to a run file. Existing states stay resident
// (the Merge-only AggState contract cannot serialize them) but stop
// growing, so memory is bounded near the budget at first overflow.
func (t *aggTable) freezeLargest() error {
	victim := -1
	for i := range t.partBytes {
		if !t.frozen[i] && (victim < 0 || t.partBytes[i] > t.partBytes[victim]) {
			victim = i
		}
	}
	if victim < 0 {
		return nil // everything frozen already; no further growth possible
	}
	if t.spill == nil {
		return fmt.Errorf("exec: aggregate memory budget %d exceeded and no spill store configured", t.budget)
	}
	f, err := createRun(t.spill)
	if err != nil {
		return err
	}
	t.files[victim] = f
	t.frozen[victim] = true
	t.nFrozen++
	t.stats.SpilledPartitions.Add(1)
	t.prof.AddSpill(0, 1, 0)
	return nil
}

// mergeGroup folds a retained group from the previous level into this
// table (used during re-aggregation). Adopted groups always stay in
// memory: a frozen target partition's file holds only raw rows, and the
// drain merges resident states regardless.
func (t *aggTable) mergeGroup(key string, g *aggGroup) error {
	tgt, ok := t.groups[key]
	if !ok {
		t.groups[key] = g
		t.order = append(t.order, key)
		return nil
	}
	for i := range tgt.states {
		if err := tgt.states[i].Merge(g.states[i]); err != nil {
			return err
		}
	}
	return nil
}

// release frees the table's live spill files (error paths and Close).
func (t *aggTable) release() {
	for i, f := range t.files {
		if f != nil {
			f.Release()
			t.files[i] = nil
		}
	}
}

// spilledPart gathers one partition's overflow across all workers: the
// raw-row files plus the states that were already resident when the
// partition froze (or that live in workers which never froze it).
type spilledPart struct {
	files    []SpillFile
	retained []keyedGroup
}

// aggDrain streams the merged result of one or more worker tables:
// in-memory groups of never-frozen partitions first, then each spilled
// partition re-aggregated from disk (recursively — a re-aggregation can
// itself freeze and spill at the next level).
type aggDrain struct {
	base     *aggTable // prototype for re-aggregation tables
	mem      []*aggGroup
	memPos   int
	spilled  []spilledPart
	spillPos int
	sub      *aggDrain
}

// drainTables merges worker tables into a drain plan. A partition
// counts as spilled if any worker froze it; its resident groups from
// every worker become retained states merged during re-aggregation.
func drainTables(tables []*aggTable) (*aggDrain, error) {
	base := tables[0]
	d := &aggDrain{base: base}
	spilledOverall := make([]bool, base.parts)
	any := false
	for _, t := range tables {
		for p, fr := range t.frozen {
			if fr {
				spilledOverall[p] = true
				any = true
			}
		}
	}
	if !any && len(tables) == 1 {
		d.mem = make([]*aggGroup, len(base.order))
		for i, key := range base.order {
			d.mem[i] = base.groups[key]
		}
		return d, nil
	}
	spIdx := make(map[int]int)
	for p, sp := range spilledOverall {
		if sp {
			spIdx[p] = len(d.spilled)
			d.spilled = append(d.spilled, spilledPart{})
		}
	}
	fail := func(err error) (*aggDrain, error) {
		// Files already adopted by the drain are no longer owned by any
		// table; free them here so the caller's table cleanup suffices.
		for i := range d.spilled {
			for _, f := range d.spilled[i].files {
				f.Release()
			}
		}
		return nil, err
	}
	merged := make(map[string]*aggGroup)
	for _, t := range tables {
		for _, key := range t.order {
			g := t.groups[key]
			p := int(partitionHash([]byte(key), base.level) % uint64(base.parts))
			if spilledOverall[p] {
				part := &d.spilled[spIdx[p]]
				part.retained = append(part.retained, keyedGroup{key: key, g: g})
				continue
			}
			tgt, ok := merged[key]
			if !ok {
				merged[key] = g
				d.mem = append(d.mem, g)
				continue
			}
			for i := range tgt.states {
				if err := tgt.states[i].Merge(g.states[i]); err != nil {
					return fail(err)
				}
			}
		}
		for p, fr := range t.frozen {
			if fr && t.files[p] != nil {
				d.spilled[spIdx[p]].files = append(d.spilled[spIdx[p]].files, t.files[p])
				t.files[p] = nil // ownership moves to the drain
			}
		}
	}
	return d, nil
}

// next yields the next finished group.
func (d *aggDrain) next() (*aggGroup, bool, error) {
	for {
		if d.memPos < len(d.mem) {
			g := d.mem[d.memPos]
			d.memPos++
			return g, true, nil
		}
		if d.sub != nil {
			g, ok, err := d.sub.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return g, true, nil
			}
			d.sub = nil
		}
		if d.spillPos >= len(d.spilled) {
			return nil, false, nil
		}
		part := d.spilled[d.spillPos]
		d.spillPos++
		sub, err := d.base.reaggregate(part)
		if err != nil {
			return nil, false, err
		}
		d.sub = sub
	}
}

// reaggregate rebuilds one spilled partition: its raw rows re-aggregate
// at level+1 (a fresh partition hash, so a skewed partition subdivides),
// then the retained states merge in. Past the depth cap the table runs
// unbudgeted — all remaining rows share keys no hash can split.
func (t *aggTable) reaggregate(part spilledPart) (*aggDrain, error) {
	t.stats.SpillRecursions.Add(1)
	budget := t.budget
	if t.level+1 >= maxAggSpillDepth {
		budget = 0
	}
	sub := newAggTable(t.groupBy, t.aggs, t.parts, t.level+1, budget, t.spill, t.stats, t.prof)
	fail := func(err error) (*aggDrain, error) {
		for _, f := range part.files {
			if f != nil {
				f.Release()
			}
		}
		sub.release()
		return nil, err
	}
	for fi, f := range part.files {
		t.stats.SpilledBytes.Add(f.Bytes())
		t.prof.AddSpill(f.Bytes(), 0, 0)
		it, err := f.Iter()
		if err != nil {
			return fail(err)
		}
		for {
			row, ok, err := it.Next()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			if err := sub.add(row); err != nil {
				return fail(err)
			}
		}
		f.Release()
		part.files[fi] = nil
	}
	for _, kg := range part.retained {
		if err := sub.mergeGroup(kg.key, kg.g); err != nil {
			return fail(err)
		}
	}
	return drainTables([]*aggTable{sub})
}

// release frees the files of every unprocessed spilled partition.
func (d *aggDrain) release() {
	for i := d.spillPos; i < len(d.spilled); i++ {
		for _, f := range d.spilled[i].files {
			if f != nil {
				f.Release()
			}
		}
		d.spilled[i].files = nil
	}
	if d.sub != nil {
		d.sub.release()
		d.sub = nil
	}
	if d.base != nil {
		d.base.release()
	}
}

// SpillableAggregate evaluates GROUP BY with aggregate functions under a
// memory budget. With Parts set it is the paper's Figure 9 plan made
// out-of-core: one partial aggregate per worker below the exchange, a
// final AggState.Merge pass above it, and budget-triggered partition
// spilling inside each partial. With Child set it runs the same table
// serially. Output rows are the group-by values followed by the
// aggregate results; with no group-by expressions it produces the single
// global aggregate row.
type SpillableAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	// Child is the single-stream input; Parts are per-worker partial
	// inputs (set one or the other).
	Child Operator
	Parts []Operator
	// Partitions is the spill hash fan-out (default 32).
	Partitions int
	// MemoryBudget caps the bytes of resident group state across all
	// workers; 0 means unlimited. Exceeding it freezes partitions, which
	// spill through Spill.
	MemoryBudget int64
	// Spill creates temp files for frozen partitions. Required only when
	// MemoryBudget can be exceeded.
	Spill SpillStore
	// Level seeds the partition hash (zero for planner-built nodes).
	Level int

	drain *aggDrain
	out   sqltypes.Row
}

// Open drains the input(s) into budgeted partial tables and prepares the
// merged drain.
func (a *SpillableAggregate) Open(ctx *Context) error {
	stats := &statsFrom(ctx).Agg
	parts := a.Partitions
	if parts < 1 {
		parts = DefaultAggPartitions
	}
	a.drain = nil
	a.out = make(sqltypes.Row, len(a.GroupBy)+len(a.Aggs))
	if len(a.GroupBy) == 0 {
		return a.openGlobal(ctx)
	}

	var tables []*aggTable
	if len(a.Parts) > 0 {
		perBudget := a.MemoryBudget
		if perBudget > 0 {
			perBudget /= int64(len(a.Parts))
			if perBudget < 1 {
				perBudget = 1
			}
		}
		tables = make([]*aggTable, len(a.Parts))
		errs := make([]error, len(a.Parts))
		var wg sync.WaitGroup
		for i, part := range a.Parts {
			tables[i] = newAggTable(a.GroupBy, a.Aggs, parts, a.Level, perBudget, a.Spill, stats, profFrom(ctx))
			wg.Add(1)
			go func(i int, child Operator) {
				defer wg.Done()
				errs[i] = drainIntoTable(ctx, child, tables[i])
			}(i, part)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, t := range tables {
					t.release()
				}
				return err
			}
		}
	} else {
		t := newAggTable(a.GroupBy, a.Aggs, parts, a.Level, a.MemoryBudget, a.Spill, stats, profFrom(ctx))
		if err := drainIntoTable(ctx, a.Child, t); err != nil {
			t.release()
			return err
		}
		tables = []*aggTable{t}
	}
	d, err := drainTables(tables)
	if err != nil {
		for _, t := range tables {
			t.release()
		}
		return err
	}
	a.drain = d
	return nil
}

// openGlobal evaluates an aggregate without GROUP BY: one set of states
// per input, folded a batch at a time where the input delivers batches,
// then merged. There is always exactly one result group, also over an
// empty input.
func (a *SpillableAggregate) openGlobal(ctx *Context) error {
	inputs := a.Parts
	if len(inputs) == 0 {
		inputs = []Operator{a.Child}
	}
	partials := make([][]AggState, len(inputs))
	for i := range partials {
		partials[i] = newStates(a.Aggs)
	}
	errs := make([]error, len(inputs))
	if len(inputs) == 1 {
		errs[0] = foldGlobal(ctx, inputs[0], a.Aggs, partials[0])
	} else {
		var wg sync.WaitGroup
		for i, in := range inputs {
			wg.Add(1)
			go func(i int, in Operator) {
				defer wg.Done()
				errs[i] = foldGlobal(ctx, in, a.Aggs, partials[i])
			}(i, in)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, p := range partials[1:] {
		for i, st := range p {
			if err := partials[0][i].Merge(st); err != nil {
				return err
			}
		}
	}
	a.drain = &aggDrain{mem: []*aggGroup{{states: partials[0]}}}
	return nil
}

// foldGlobal opens a child, feeds everything it produces to states, and
// closes it. A batch child is read through NextBatch and no row is built:
// COUNT(*) adds the number of selected rows, an aggregate with arguments
// reads them off the argument vectors. Other children are read row by row.
func foldGlobal(ctx *Context, child Operator, aggs []AggSpec, states []AggState) error {
	if err := child.Open(ctx); err != nil {
		return err
	}
	defer child.Close()
	args := make([][]sqltypes.Value, len(aggs))
	for i, a := range aggs {
		args[i] = make([]sqltypes.Value, len(a.Args))
	}
	bo, ok := child.(BatchOperator)
	if !ok {
		for {
			row, ok, err := child.Next()
			if err != nil || !ok {
				return err
			}
			for i, a := range aggs {
				for j, ae := range a.Args {
					if args[i][j], err = ae.Eval(row); err != nil {
						return err
					}
				}
				if err := states[i].Add(args[i]); err != nil {
					return err
				}
			}
		}
	}
	projs := make([]*expr.Projection, len(aggs))
	for i, a := range aggs {
		projs[i] = expr.CompileProjection(a.Args)
	}
	for {
		b, err := bo.NextBatch()
		if err != nil || b == nil {
			return err
		}
		for i, st := range states {
			if c, ok := st.(*countState); ok && len(args[i]) == 0 {
				c.n += int64(b.Len())
				continue
			}
			cols, err := projs[i].Eval(b)
			if err != nil {
				return err
			}
			for _, s := range b.Sel {
				for j, c := range cols {
					if args[i][j], err = c.Value(s); err != nil {
						return err
					}
				}
				if err := st.Add(args[i]); err != nil {
					return err
				}
			}
		}
	}
}

// drainIntoTable opens a child, feeds every row to the table, and closes
// it.
func drainIntoTable(ctx *Context, child Operator, t *aggTable) error {
	if err := child.Open(ctx); err != nil {
		return err
	}
	defer child.Close()
	for {
		row, ok, err := child.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := t.add(row); err != nil {
			return err
		}
	}
}

// Next emits one group.
func (a *SpillableAggregate) Next() (sqltypes.Row, bool, error) {
	if a.drain == nil {
		return nil, false, nil
	}
	g, ok, err := a.drain.next()
	if err != nil || !ok {
		return nil, false, err
	}
	return renderGroup(a.out, g)
}

// Close releases spill files and tables.
func (a *SpillableAggregate) Close() error {
	if a.drain != nil {
		a.drain.release()
		a.drain = nil
	}
	return nil
}
