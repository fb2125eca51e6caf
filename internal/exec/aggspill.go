package exec

import (
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Spillable hash aggregation: the two-phase GROUP BY operator the
// planner emits. Each input (one per worker in the parallel plan) is
// pulled a batch at a time into an aggTable: the group keys hash once per
// row, live column by column in the key table (joinhash.go), and every
// aggregate updates its grouped states from the batch's argument vectors.
// Groups are hash-partitioned (partLedger); when the table exceeds its
// memory budget, whole partitions freeze — rows of a frozen partition go
// raw to a spill file, opened at the first of them, instead of growing the
// table, while the partition's existing states stay resident and stop
// growing. Draining emits the in-memory groups first, then re-aggregates
// each frozen partition from disk (level-seeded re-partitioning,
// depth-capped like the join) and merges the retained states back in via
// AggState.Merge — so user-defined aggregates spill exactly like COUNT and
// SUM, without requiring states to be serializable. An aggregate without
// GROUP BY is the same table with no key columns: one group, made before
// the first row.

// aggTable is one worker's partial-aggregate hash table with
// budget-triggered partition freezing. Group g is entry g of the key table
// and state g of every aggregate; ids are handed out in first-seen order.
type aggTable struct {
	keyTable
	feed   aggFeed
	kh     keyHasher
	ledger partLedger
	spill  SpillStore
	sink   obs.Sink
	files  []SpillFile // a frozen partition's file, once a row spilled to it; nil until a freeze

	// Scratch, valid within one consume.
	gids   []int32
	one    [1]int
	needed []bool // the input columns a spilled row keeps
	row    sqltypes.Row
	keyBuf [2][]byte
}

func newAggTable(groupBy []expr.Expr, aggs []AggSpec, parts, level int, budget int64, spill SpillStore, sink obs.Sink) *aggTable {
	t := &aggTable{
		keyTable: newKeyTable(len(groupBy)),
		feed:     newAggFeed(groupBy, aggs),
		ledger:   newPartLedger(parts, level, budget),
		spill:    spill,
		sink:     sink,
	}
	t.kh.proj = t.feed.keyProj
	if len(groupBy) == 0 {
		// The global aggregate's one group exists before any row arrives,
		// and still does over an empty input.
		t.insert(nil, 0, 0)
	}
	return t
}

// groups returns the number of groups.
func (t *aggTable) groups() int { return len(t.hashes) }

// insert makes the next group id for the key in row r of cols, of hash h,
// and links it into its chain.
func (t *aggTable) insert(cols []*vec.Vector, r int, h uint64) (int32, error) {
	t.one[0] = r
	if err := t.add(cols, t.one[:], []uint64{h}); err != nil {
		return -1, err
	}
	t.feed.grow(len(t.hashes))
	t.link()
	return int32(len(t.hashes) - 1), nil
}

// consume folds one batch into the table: every selected row finds or
// makes its group, then each aggregate updates from its argument vectors.
// Rows whose partition is frozen go raw to the partition's file instead.
func (t *aggTable) consume(b *vec.Batch) error {
	rows := b.Sel
	if len(rows) == 0 {
		return nil
	}
	if len(t.feed.groupBy) == 0 {
		if err := t.feed.evalArgs(b); err != nil {
			return err
		}
		return t.named(t.feed.update(nil, 0, rows))
	}
	if err := t.kh.eval(b); err != nil {
		return err
	}
	hashes, err := t.kh.hash(rows)
	if err != nil {
		return err
	}
	cols, l := t.kh.cols, &t.ledger
	if cap(t.gids) < len(rows) {
		t.gids = make([]int32, max(len(rows), vec.DefaultBatchSize))
	}
	gids := t.gids[:len(rows)]
	n := 0
	for k, r := range rows {
		h := hashes[k]
		if l.nOut > 0 {
			if p := l.route(h); l.parts[p].out {
				if err := t.spillRow(b, r, p); err != nil {
					return err
				}
				continue
			}
		}
		g, err := t.find(chainStart, h, cols, r, &t.keyBuf)
		if err != nil {
			return err
		}
		if g < 0 {
			if g, err = t.insert(cols, r, h); err != nil {
				return err
			}
			// Growth comes from new groups, so the budget check lives on
			// the insert path: each over-budget insert freezes one more
			// partition until every future row streams to disk. A group
			// is charged its key entry, the head slots it accounts for
			// (between a half and a quarter full: four at worst) and its
			// states.
			l.charge(l.route(h), t.entryBytes(int(g), 4)+64*int64(len(t.feed.aggs)))
			if err := t.freeze(l.victim()); err != nil {
				return err
			}
		}
		rows[n], gids[n] = r, g
		n++
	}
	t.sink.Add(obs.AggSpilledRows, int64(len(rows)-n))
	if n == 0 {
		return nil
	}
	b.Sel = rows[:n] // argument expressions see the rows that stayed
	if err := t.feed.evalArgs(b); err != nil {
		return err
	}
	return t.named(t.feed.update(gids[:n], 0, b.Sel))
}

// named names the group of a state's error by its key.
func (t *aggTable) named(err error) error {
	if err == nil {
		return nil
	}
	return named(err, func(g int32) string {
		key := make(sqltypes.Row, len(t.keys))
		if kerr := t.key(g, key); kerr != nil {
			return kerr.Error()
		}
		return fmt.Sprint(key)
	})
}

// key boxes group g's key into the first cells of dst.
func (t *aggTable) key(g int32, dst sqltypes.Row) (err error) {
	for i, c := range t.keys {
		if dst[i], err = c.Value(int(g)); err != nil {
			return err
		}
	}
	return nil
}

// spillRow writes row r of b, as far as the aggregate reads it, to frozen
// partition p's file, opening it at the partition's first spilled row.
func (t *aggTable) spillRow(b *vec.Batch, r, p int) error {
	if t.files[p] == nil {
		f, err := t.spill.Create()
		if err != nil {
			return err
		}
		t.files[p] = f
	}
	if len(t.needed) != len(b.Cols) {
		t.needed = make([]bool, len(b.Cols))
		t.feed.markCols(t.needed)
	}
	var err error
	if t.row, err = b.ReadRowCols(r, t.row, t.needed); err != nil {
		return err
	}
	return t.files[p].Append(t.row)
}

// freeze freezes partition p, the ledger's victim: from here on its rows
// spill raw. Existing states stay resident (the Merge-only AggState
// contract cannot serialize them) but stop growing, so memory is bounded
// near the budget at first overflow.
func (t *aggTable) freeze(p int) error {
	if p < 0 {
		return nil // within budget, or everything frozen already
	}
	if t.spill == nil {
		return fmt.Errorf("exec: aggregate memory budget %d exceeded and no spill store configured", t.ledger.budget)
	}
	if t.files == nil {
		t.files = make([]SpillFile, len(t.ledger.parts))
	}
	t.ledger.markOut(p, false)
	t.sink.Add(obs.AggSpilledPartitions, 1)
	return nil
}

// absorb merges group g of src into this table's group of the same key,
// making it first if need be. Absorbed groups always stay in memory: a
// frozen partition's file holds only raw rows, and the drain merges
// resident states regardless.
func (t *aggTable) absorb(src *aggTable, g int32) error {
	h := src.hashes[g]
	e, err := t.find(chainStart, h, src.keys, int(g), &t.keyBuf)
	if err != nil {
		return err
	}
	if e < 0 {
		if e, err = t.insert(src.keys, int(g), h); err != nil {
			return err
		}
	}
	for i, a := range t.feed.aggs {
		if err := a.state(e).Merge(src.feed.aggs[i].state(g)); err != nil {
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

// groupRef names one group of one table.
type groupRef struct {
	t *aggTable
	g int32
}

// spilledPart gathers one partition's overflow across all workers: the
// raw-row files plus the states that were already resident when the
// partition froze (or that live in workers which never froze it).
type spilledPart struct {
	files    []SpillFile
	retained []groupRef
}

// aggDrain streams the merged result of one or more worker tables:
// in-memory groups of never-frozen partitions first, then each spilled
// partition re-aggregated from disk (recursively — a re-aggregation can
// itself freeze and spill at the next level).
type aggDrain struct {
	mem      *aggTable // holds the in-memory groups; prototype for re-aggregation tables
	memIDs   []int32   // which of its groups to emit; nil = all, in id order
	memPos   int
	spilled  []spilledPart
	spillPos int
	sub      *aggDrain
}

// drainTables merges worker tables into a drain plan. A partition counts
// as spilled if any worker froze it; its resident groups from every worker
// become retained states merged during re-aggregation. The groups of the
// other partitions merge into the first table, in first-seen order table
// by table.
func drainTables(tables []*aggTable) (*aggDrain, error) {
	base := tables[0]
	d := &aggDrain{mem: base}
	spIdx := make([]int, len(base.ledger.parts)) // partition -> index in d.spilled, -1 = in memory
	for p := range spIdx {
		spIdx[p] = -1
		for _, t := range tables {
			if t.ledger.parts[p].out {
				spIdx[p] = len(d.spilled)
				d.spilled = append(d.spilled, spilledPart{})
				break
			}
		}
	}
	if len(d.spilled) == 0 && len(tables) == 1 {
		return d, nil
	}
	for _, t := range tables {
		for p, f := range t.files {
			if f != nil {
				d.spilled[spIdx[p]].files = append(d.spilled[spIdx[p]].files, f)
				t.files[p] = nil // ownership moves to the drain
			}
		}
	}
	for ti, t := range tables { // base comes first: it has only its own groups yet
		for g := int32(0); int(g) < t.groups(); g++ {
			sp := spIdx[base.ledger.route(t.hashes[g])]
			switch {
			case sp >= 0:
				d.spilled[sp].retained = append(d.spilled[sp].retained, groupRef{t, g})
			case ti > 0:
				if err := base.absorb(t, g); err != nil {
					d.release()
					return nil, err
				}
			}
		}
	}
	if len(d.spilled) > 0 {
		d.memIDs = make([]int32, 0, base.groups())
		for g := int32(0); int(g) < base.groups(); g++ {
			if spIdx[base.ledger.route(base.hashes[g])] < 0 {
				d.memIDs = append(d.memIDs, g)
			}
		}
	}
	return d, nil
}

// next yields the next finished group.
func (d *aggDrain) next() (groupRef, bool, error) {
	for {
		if d.memIDs == nil && d.memPos < d.mem.groups() {
			d.memPos++
			return groupRef{d.mem, int32(d.memPos - 1)}, true, nil
		}
		if d.memPos < len(d.memIDs) {
			d.memPos++
			return groupRef{d.mem, d.memIDs[d.memPos-1]}, true, nil
		}
		if d.sub != nil {
			ref, ok, err := d.sub.next()
			if err != nil || ok {
				return ref, ok, err
			}
			d.sub = nil
		}
		if d.spillPos >= len(d.spilled) {
			return groupRef{}, false, nil
		}
		part := d.spilled[d.spillPos]
		d.spilled[d.spillPos].files = nil // reaggregate owns them now
		d.spillPos++
		sub, err := d.mem.reaggregate(part)
		if err != nil {
			return groupRef{}, false, err
		}
		d.sub = sub
	}
}

// reaggregate rebuilds one spilled partition: its raw rows re-aggregate
// at level+1 (a fresh partition hash, so a skewed partition subdivides),
// then the retained states merge in. Past the depth cap the table runs
// unbudgeted — all remaining rows share keys no hash can split.
func (t *aggTable) reaggregate(part spilledPart) (*aggDrain, error) {
	t.sink.Add(obs.AggSpillRecursions, 1)
	sub := newAggTable(t.feed.groupBy, t.feed.specs, len(t.ledger.parts), t.ledger.level+1, t.ledger.subBudget(), t.spill, t.sink)
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
		t.sink.Add(obs.AggSpilledBytes, f.Bytes())
		it, err := f.Iter()
		if err != nil {
			return fail(err)
		}
		var pack rowPacker
		for {
			b, err := pack.next(it.Next)
			if err == nil && b != nil {
				err = sub.consume(b)
			}
			if err != nil {
				return fail(err)
			}
			if b == nil {
				break
			}
		}
		f.Release()
		part.files[fi] = nil
	}
	for _, ref := range part.retained {
		if err := sub.absorb(ref.t, ref.g); err != nil {
			return fail(err)
		}
	}
	return drainTables([]*aggTable{sub})
}

// release frees the files of every unprocessed spilled partition.
func (d *aggDrain) release() {
	for i := d.spillPos; i < len(d.spilled); i++ {
		for _, f := range d.spilled[i].files {
			f.Release()
		}
		d.spilled[i].files = nil
	}
	if d.sub != nil {
		d.sub.release()
		d.sub = nil
	}
	d.mem.release()
}

// SpillableAggregate evaluates GROUP BY with aggregate functions under a
// memory budget. With Parts set it is the paper's Figure 9 plan made
// out-of-core: one partial aggregate per worker below the exchange, a
// final AggState.Merge pass above it, and budget-triggered partition
// spilling inside each partial. With Child set it runs the same table
// serially. Output rows are the group-by values followed by the aggregate
// results, packed into batches on the way out; with no group-by
// expressions it produces the single global aggregate row.
type SpillableAggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggSpec
	// Child is the single-stream input; Parts are per-worker partial
	// inputs (set one or the other).
	Child Operator
	Parts []Operator
	// Partitions is the spill hash fan-out (default SpillPartitions).
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
	row   sqltypes.Row
	out   rowPacker
}

// Open drains the input(s) into budgeted partial tables and prepares the
// merged drain.
func (a *SpillableAggregate) Open(ctx *Context) error {
	a.drain = nil
	a.row = make(sqltypes.Row, len(a.GroupBy)+len(a.Aggs))
	a.out.reset()
	inputs := a.Parts
	if len(inputs) == 0 {
		inputs = []Operator{a.Child}
	}
	budget := a.MemoryBudget
	if budget > 0 {
		budget = max(1, budget/int64(len(inputs)))
	}
	tables := make([]*aggTable, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		tables[i] = newAggTable(a.GroupBy, a.Aggs, a.Partitions, a.Level, budget, a.Spill, ctx.Sink)
		if len(inputs) == 1 {
			errs[i] = drainIntoTable(ctx, in, tables[i])
			break
		}
		wg.Add(1)
		go func(i int, in Operator) {
			defer wg.Done()
			errs[i] = drainIntoTable(ctx, in, tables[i])
		}(i, in)
	}
	wg.Wait()
	var err error
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err == nil {
		a.drain, err = drainTables(tables)
	}
	if err != nil {
		for _, t := range tables {
			t.release()
		}
	}
	return err
}

// drainIntoTable opens a child, folds every batch it produces into the
// table, and closes it.
func drainIntoTable(ctx *Context, in Operator, t *aggTable) error {
	if err := in.Open(ctx); err != nil {
		return err
	}
	defer in.Close()
	for {
		b, err := in.NextBatch()
		if err != nil || b == nil {
			return err
		}
		if err := t.consume(b); err != nil {
			return err
		}
	}
}

// NextBatch packs the next groups.
func (a *SpillableAggregate) NextBatch() (*vec.Batch, error) { return a.out.next(a.next) }

// PruneColumns does not reach the inputs: the aggregate reads the columns
// of its own expressions whatever its consumer reads.
func (a *SpillableAggregate) PruneColumns(needed []bool) { a.out.needed = needed }

// next emits one group.
func (a *SpillableAggregate) next() (sqltypes.Row, bool, error) {
	if a.drain == nil {
		return nil, false, nil
	}
	ref, ok, err := a.drain.next()
	if err != nil || !ok {
		return nil, false, err
	}
	if err = ref.t.key(ref.g, a.row); err == nil {
		err = ref.t.feed.render(ref.g, a.row[len(a.GroupBy):])
	}
	return a.row, err == nil, err
}

// Close releases spill files and tables.
func (a *SpillableAggregate) Close() error {
	if a.drain != nil {
		a.drain.release()
		a.drain = nil
	}
	return nil
}
