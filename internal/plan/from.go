package plan

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// planFrom plans a FROM item. conjuncts are WHERE terms available for
// pushdown; terms consumed by a scan are removed from the returned
// remainder.
func (pl *Planner) planFrom(ref sqlparse.TableRef, conjuncts []sqlparse.Expr) (*relation, []sqlparse.Expr, error) {
	switch t := ref.(type) {
	case *sqlparse.NamedTable:
		return pl.planNamedTable(t, conjuncts)
	case *sqlparse.FuncRef:
		rel, err := pl.planTVF(t, nil)
		return rel, conjuncts, err
	case *sqlparse.SubqueryRef:
		node, err := pl.PlanSelect(t.Query)
		if err != nil {
			return nil, nil, err
		}
		cols := make([]ColMeta, len(node.Cols))
		for i, c := range node.Cols {
			cols[i] = ColMeta{Qual: t.Alias, Name: c.Name}
		}
		return &relation{node: node, cols: cols}, conjuncts, nil
	case *sqlparse.JoinRef:
		return pl.planJoin(t, conjuncts)
	case *sqlparse.ApplyRef:
		left, remaining, err := pl.planFrom(t.Left, conjuncts)
		if err != nil {
			return nil, nil, err
		}
		rel, err := pl.planApply(left, t.Fn)
		return rel, remaining, err
	}
	return nil, nil, fmt.Errorf("plan: unsupported FROM item %T", ref)
}

// planNamedTable builds a (possibly parallel) scan with pushed predicates.
func (pl *Planner) planNamedTable(t *sqlparse.NamedTable, conjuncts []sqlparse.Expr) (*relation, []sqlparse.Expr, error) {
	tab := pl.Provider.Table(t.Name)
	if tab == nil {
		return nil, nil, fmt.Errorf("plan: unknown table %q", t.Name)
	}
	qual := t.Alias
	if qual == "" {
		qual = t.Name
	}
	cols := make([]ColMeta, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = ColMeta{Qual: qual, Name: c.Name}
	}
	sc := &scope{cols: cols}

	// Consume pushable conjuncts.
	var pushed []sqlparse.Expr
	var remaining []sqlparse.Expr
	for _, c := range conjuncts {
		if refsResolvableIn(c, sc) {
			pushed = append(pushed, c)
		} else {
			remaining = append(remaining, c)
		}
	}
	var pred expr.Expr
	if len(pushed) > 0 {
		b := &binder{pl: pl, scope: sc}
		var err error
		pred, err = b.bind(joinConjuncts(pushed))
		if err != nil {
			return nil, nil, err
		}
	}

	// Post-filter cardinality: the raw row count scaled by the estimated
	// selectivity of the pushed predicates (histograms/NDV/MCVs once
	// ANALYZE ran, System R defaults otherwise).
	ts := pl.Provider.Stats(tab)
	rawEst := pl.Provider.RowCountEstimate(tab)
	est := rawEst
	if len(pushed) > 0 {
		est = scaleEst(est, conjunctsSelectivity(ts, pushed))
	}

	// Access-path selection (see access.go): sargable bounds from the
	// pushed conjuncts yield zone filters and index candidates, priced by
	// estimated page I/O against the full scan.
	var zoneFilters []storage.ZoneFilter
	var idxCand *indexChoice
	// seekLo/seekHi bound a clustered scan to [lo, hi) on the leading key
	// column; seekSel is the share of the table inside the bound.
	var seekLo, seekHi *sqltypes.Value
	seek, seekSel := false, 1.0
	ranges := sargableRanges(sc, tab, ts, pushed)
	if !tab.Clustered {
		zoneFilters = zoneFiltersFrom(ranges)
		idxCand = pickIndex(tab, ranges)
	} else if r := ranges[tab.PrimaryKey[0]]; r != nil {
		seekLo, seekHi = clusteredSeekBounds(r)
		if seek = seekLo != nil || seekHi != nil; seek {
			seekSel = r.sel
		}
	}
	keptPages, totalPages := int64(0), int64(0)
	if len(zoneFilters) > 0 {
		keptPages, totalPages = pl.Provider.HeapPageStats(tab, zoneFilters)
	}
	useIndex := false
	if idxCand != nil {
		idxRows := scaleEst(rawEst, idxCand.rng.sel)
		useIndex = indexScanCost(idxRows) < heapScanCost(rawEst, keptPages, totalPages)
	}
	switch pl.ForcePath {
	case "full":
		useIndex, zoneFilters = false, nil
		keptPages, totalPages = 0, 0
	case "zonemap":
		useIndex = false
	case "index":
		useIndex = idxCand != nil
	}
	switch {
	case useIndex:
		pl.Sink.Add(obs.PathPickIndex, 1)
	case len(zoneFilters) > 0:
		pl.Sink.Add(obs.PathPickZoneMap, 1)
	default:
		pl.Sink.Add(obs.PathPickFull, 1)
	}
	// The partition count follows the pages the scan actually reads — the
	// raw table size shrunk by zone pruning — NOT the post-filter output
	// estimate: a selective unindexed predicate still reads every page, and
	// those reads are what parallelism amortizes. An index scan is serial.
	partsN := 1
	if !useIndex {
		scanBasis := scaleEst(rawEst, seekSel)
		if totalPages > 0 && keptPages < totalPages {
			scanBasis = rawEst * keptPages / totalPages
		}
		partsN = pl.partitionCount(scanBasis)
	}

	scanOp := "Table Scan"
	var ordered []ColMeta
	detail := fmt.Sprintf("[%s]", tab.Name)
	switch {
	case useIndex:
		// Rows arrive in index-key order; the bounds only constrain the
		// first index column, so the whole pushed predicate still filters.
		scanOp = "Index Scan"
		for _, c := range idxCand.idx.Columns {
			ordered = append(ordered, ColMeta{Qual: qual, Name: tab.Columns[c].Name})
		}
		detail += fmt.Sprintf(" %s (%s..%s)", idxCand.idx.Name, boundStr(idxCand.rng.lo), boundStr(idxCand.rng.hi))
	case tab.Clustered:
		scanOp = "Clustered Index Scan"
		for _, pk := range tab.PrimaryKey {
			ordered = append(ordered, ColMeta{Qual: qual, Name: tab.Columns[pk].Name})
		}
	}
	if pred != nil {
		detail += fmt.Sprintf(" WHERE:(%s)", pred)
	}
	// Annotate the access path whenever a choice was live: zone pruning
	// with its exact page arithmetic, or an explicit "full scan" marker
	// when an applicable index lost the cost race.
	switch {
	case useIndex:
	case totalPages > 0 && keptPages < totalPages:
		detail += fmt.Sprintf(" zonemap-pruned(%d/%d pages)", keptPages, totalPages)
	case idxCand != nil:
		detail += " full scan"
	}
	if seek {
		detail += fmt.Sprintf(" SEEK:[%s..%s)", boundStr(seekLo), boundStr(seekHi))
	}
	// The leaf is declared before the chain builders so they can read its
	// profile at build time: consumers that take the chains directly
	// (exchanges, partitioned joins, a range-partitioned merge join) bypass
	// the leaf's Build, so this is where the chains bind to the node that
	// displays them.
	scanLeaf := &Node{Op: scanOp, Detail: detail, Cols: cols, Est: est}
	// chain finishes one scan chain: the pushed predicate as a
	// selection-vector filter (dictionary-encoded columns evaluate it once
	// per distinct value), then the leaf's profile.
	chain := func(op exec.Operator) exec.Operator {
		if pred != nil {
			op = &exec.Filter{Pred: pred, Child: op}
		}
		if scanLeaf.Prof != nil {
			op = exec.InstrumentOp(op, scanLeaf.Prof)
		}
		return op
	}
	// A clustered scan is built over key ranges of its leading key column,
	// each intersected with the seek bound [seekLo, seekHi).
	var keyed *keyedScan
	if tab.Clustered {
		keyed = &keyedScan{tab: tab, leaf: scanLeaf, chains: func(ranges [][2]*sqltypes.Value) ([]exec.Operator, error) {
			ops := make([]exec.Operator, len(ranges))
			for i, rg := range ranges {
				from, to := rg[0], rg[1]
				if seekLo != nil && (from == nil || sqltypes.Compare(*seekLo, *from) > 0) {
					from = seekLo
				}
				if seekHi != nil && (to == nil || sqltypes.Compare(*seekHi, *to) < 0) {
					to = seekHi
				}
				if from != nil && to != nil && sqltypes.Compare(*from, *to) >= 0 {
					continue
				}
				op, err := pl.Provider.OrderedScanRange(tab, from, to)
				if err != nil {
					return nil, err
				}
				ops[i] = chain(op)
			}
			return ops, nil
		}}
	}
	parts := func() ([]exec.Operator, error) {
		if useIndex {
			r := idxCand.rng
			op, err := pl.Provider.IndexScan(tab, idxCand.idx.Name, r.lo, r.hi, r.loInc, r.hiInc)
			if err != nil {
				return nil, err
			}
			return []exec.Operator{chain(op)}, nil
		}
		if keyed != nil {
			ranges, err := pl.Provider.KeyRanges(tab, partsN)
			if err != nil {
				return nil, err
			}
			ops, err := keyed.chains(ranges)
			if err != nil {
				return nil, err
			}
			return liveChains(ops), nil
		}
		ops, err := pl.Provider.ScanPartitionsPruned(tab, partsN, zoneFilters)
		if err != nil {
			return nil, err
		}
		for i := range ops {
			ops[i] = chain(ops[i])
		}
		return ops, nil
	}
	var node *Node
	scanLeaf.Build = func() (exec.Operator, error) {
		ops, err := parts()
		if err != nil {
			return nil, err
		}
		return ops[0], nil
	}
	if partsN > 1 {
		node = &Node{
			Op:       "Parallelism (Gather Streams)",
			Detail:   fmt.Sprintf("DOP %d", partsN),
			Children: []*Node{scanLeaf},
			Cols:     cols,
			Est:      est,
			Build: func() (exec.Operator, error) {
				ops, err := parts()
				if err != nil {
					return nil, err
				}
				// Clustered partitions are contiguous key ranges: drained
				// in order, the exchange keeps the key order.
				return &exec.Gather{Children: ops, Ordered: tab.Clustered}, nil
			},
		}
	} else {
		node = scanLeaf
	}
	rel := &relation{node: node, cols: cols, ordered: ordered, est: est, stats: ts, keyed: keyed}
	if partsN > 1 {
		rel.parts = parts
		rel.partsN = partsN
	}
	return rel, remaining, nil
}

// planTVF builds a table-valued function scan. outer, when non-nil, is
// the scope for correlated arguments (CROSS APPLY); otherwise arguments
// must be constants.
func (pl *Planner) planTVF(fn *sqlparse.FuncRef, outer *scope) (*relation, error) {
	tvf, ok := pl.Provider.TVF(fn.Name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown table-valued function %q", fn.Name)
	}
	b := &binder{pl: pl, scope: outer}
	args, err := b.bindAll(fn.Args)
	if err != nil {
		return nil, err
	}
	// Constant argument values, where known, inform the schema.
	constArgs := make([]sqltypes.Value, len(args))
	for i, a := range args {
		if lit, ok := a.(*expr.Lit); ok {
			constArgs[i] = lit.V
		}
	}
	schema, err := tvf.Schema(constArgs)
	if err != nil {
		return nil, err
	}
	qual := fn.Alias
	if qual == "" {
		qual = fn.Name
	}
	cols := make([]ColMeta, len(schema))
	for i, c := range schema {
		cols[i] = ColMeta{Qual: qual, Name: c.Name}
	}
	node := &Node{
		Op:     "Table-valued Function",
		Detail: fmt.Sprintf("[%s]", fn.Name),
		Cols:   cols,
		// The call is the one-row case of CROSS APPLY: the function
		// expands one outer row of constants, under the leaf every scan
		// is.
		Build: func() (exec.Operator, error) {
			vals := make([]*vec.Vector, len(args))
			for i, a := range args {
				v, err := a.Eval(nil)
				if err != nil {
					return nil, fmt.Errorf("plan: TVF %s argument %d: %w", fn.Name, i+1, err)
				}
				vals[i] = vec.NewVector(sqltypes.KindNull, 1)
				vals[i].Append(v)
			}
			return &exec.Scan{Factory: func(ctx *exec.Context, needed []bool) (exec.BatchIterator, error) {
				return tvf.Open(ctx, vals, []int{0}, needed)
			}}, nil
		},
	}
	return &relation{node: node, cols: cols}, nil
}

// planApply plans CROSS APPLY fn(...) where arguments reference the outer
// row (Query 3's per-alignment PivotAlignment expansion).
func (pl *Planner) planApply(left *relation, fn *sqlparse.FuncRef) (*relation, error) {
	tvf, ok := pl.Provider.TVF(fn.Name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown table-valued function %q", fn.Name)
	}
	b := &binder{pl: pl, scope: &scope{cols: left.cols}}
	args, err := b.bindAll(fn.Args)
	if err != nil {
		return nil, err
	}
	schema, err := tvf.Schema(make([]sqltypes.Value, len(args)))
	if err != nil {
		return nil, err
	}
	qual := fn.Alias
	if qual == "" {
		qual = fn.Name
	}
	cols := append([]ColMeta{}, left.cols...)
	for _, c := range schema {
		cols = append(cols, ColMeta{Qual: qual, Name: c.Name})
	}
	leftNode := left.node
	node := &Node{
		Op:       "Nested Loops (Cross Apply)",
		Detail:   fmt.Sprintf("TVF:[%s]", fn.Name),
		Children: []*Node{leftNode, {Op: "Table-valued Function", Detail: fmt.Sprintf("[%s]", fn.Name)}},
		Cols:     cols,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(leftNode)
			if err != nil {
				return nil, err
			}
			return &exec.Apply{Child: c, Args: args, Func: tvf, OuterWidth: len(left.cols)}, nil
		},
	}
	// Ordering of the outer input is preserved by the nested-loops apply.
	return &relation{node: node, cols: cols, ordered: left.ordered}, nil
}

// planJoin plans an inner join over the relations planFrom built for its
// sides, preferring a merge join when both arrive ordered on the join key
// — range-partitioned over two clustered scans, the paper's Figure 10 plan
// — and falling back to the hash join.
func (pl *Planner) planJoin(j *sqlparse.JoinRef, conjuncts []sqlparse.Expr) (*relation, []sqlparse.Expr, error) {
	left, remaining, err := pl.planFrom(j.Left, conjuncts)
	if err != nil {
		return nil, nil, err
	}
	right, remaining, err := pl.planFrom(j.Right, remaining)
	if err != nil {
		return nil, nil, err
	}
	combined := append(append([]ColMeta{}, left.cols...), right.cols...)
	leftScope := &scope{cols: left.cols}
	rightScope := &scope{cols: right.cols}

	// Split the ON condition into equi-join keys and residual predicates.
	var leftKeyIdents, rightKeyIdents []*sqlparse.Ident
	var residual []sqlparse.Expr
	for _, c := range splitConjuncts(j.On) {
		if b, ok := c.(*sqlparse.Binary); ok && b.Op == "=" {
			lid, lok := b.L.(*sqlparse.Ident)
			rid, rok := b.R.(*sqlparse.Ident)
			if lok && rok {
				switch {
				case refsResolvableIn(lid, leftScope) && refsResolvableIn(rid, rightScope):
					leftKeyIdents = append(leftKeyIdents, lid)
					rightKeyIdents = append(rightKeyIdents, rid)
					continue
				case refsResolvableIn(rid, leftScope) && refsResolvableIn(lid, rightScope):
					leftKeyIdents = append(leftKeyIdents, rid)
					rightKeyIdents = append(rightKeyIdents, lid)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	if len(leftKeyIdents) == 0 {
		return nil, nil, fmt.Errorf("plan: join requires at least one equi-join condition")
	}
	lb := &binder{pl: pl, scope: leftScope}
	leftKeys, err := lb.bindAll(identExprs(leftKeyIdents))
	if err != nil {
		return nil, nil, err
	}
	rb := &binder{pl: pl, scope: rightScope}
	rightKeys, err := rb.bindAll(identExprs(rightKeyIdents))
	if err != nil {
		return nil, nil, err
	}

	rel := pl.mergeJoinRelation(left, right, leftKeyIdents, rightKeyIdents, leftKeys, rightKeys, combined)
	if rel == nil {
		rel = pl.partitionedJoinRelation(left, right, leftKeyIdents, rightKeyIdents, leftKeys, rightKeys, combined)
	}

	if len(residual) > 0 {
		b := &binder{pl: pl, scope: &scope{cols: combined}}
		pred, err := b.bind(joinConjuncts(residual))
		if err != nil {
			return nil, nil, err
		}
		rel = filterRelation(rel, pred)
	}
	return rel, remaining, nil
}

// mergeJoinRelation exploits interesting orders: when both inputs already
// stream in order on the single join key — clustered scans, index scans,
// another merge join — a merge join consumes them directly: no hash
// table, no sort, and the key order survives for consumers above. Both
// sides may hold duplicate keys (the operator buffers right groups and
// replays them), and NULL keys never join on either the hash or the merge
// path, so results are identical.
//
// Serial inputs make one merge join over the two nodes. When either input
// is a partitioned clustered scan and both are clustered scans, both sides
// are cut at the same key ranges of the left table and each range is
// merge-joined on its own chain: the ordered gather above keeps the key
// order, and a partial aggregate can take the chains instead. Any other
// partitioned input is left to the hash join.
func (pl *Planner) mergeJoinRelation(left, right *relation,
	leftKeyIdents, rightKeyIdents []*sqlparse.Ident,
	leftKeys, rightKeys []expr.Expr, combined []ColMeta) *relation {

	if len(leftKeyIdents) != 1 || !orderedOnIdent(left, leftKeyIdents[0]) || !orderedOnIdent(right, rightKeyIdents[0]) {
		return nil
	}
	partitioned := left.parts != nil || right.parts != nil
	if partitioned && (left.keyed == nil || right.keyed == nil) {
		return nil
	}
	est := joinOutputEstimate(left, right, leftKeyIdents, rightKeyIdents)
	node := &Node{
		Op:     "Merge Join (Inner Join)",
		Detail: fmt.Sprintf("MERGE:[%s]=[%s] (interesting order)", describeExprs(leftKeys), describeExprs(rightKeys)),
		Cols:   combined,
		Est:    est,
	}
	rel := &relation{node: node, cols: combined, ordered: left.ordered[:1], est: est}
	mergeJoin := func(l, r exec.Operator) exec.Operator {
		return &exec.MergeJoin{LeftKeys: leftKeys, RightKeys: rightKeys, Left: l, Right: r, LeftWidth: len(left.cols)}
	}
	if !partitioned {
		leftNode, rightNode := left.node, right.node
		node.Children = []*Node{leftNode, rightNode}
		node.Build = func() (exec.Operator, error) {
			l, err := buildChild(leftNode)
			if err != nil {
				return nil, err
			}
			r, err := buildChild(rightNode)
			if err != nil {
				return nil, err
			}
			return mergeJoin(l, r), nil
		}
		return rel
	}

	// The range chains bypass every Build below the gather, so the join
	// node owns a profile the chains bind to, as the scan leaves do.
	lscan, rscan := left.keyed, right.keyed
	partsN := max(left.partsN, right.partsN)
	node.Children = []*Node{lscan.leaf, rscan.leaf}
	node.OwnProf = true
	parts := func() ([]exec.Operator, error) {
		ranges, err := pl.Provider.KeyRanges(lscan.tab, partsN)
		if err != nil {
			return nil, err
		}
		ls, err := lscan.chains(ranges)
		if err != nil {
			return nil, err
		}
		rs, err := rscan.chains(ranges)
		if err != nil {
			return nil, err
		}
		var ops []exec.Operator
		for i := range ranges {
			if ls[i] == nil || rs[i] == nil {
				continue // a seek bound emptied the range: it joins nothing
			}
			op := mergeJoin(ls[i], rs[i])
			if node.Prof != nil {
				op = exec.InstrumentOp(op, node.Prof)
			}
			ops = append(ops, op)
		}
		return liveChains(ops), nil
	}
	rel.parts, rel.partsN = parts, partsN
	rel.node = &Node{
		Op:       "Parallelism (Gather Streams, ordered)",
		Detail:   fmt.Sprintf("DOP %d, range-partitioned on %s", partsN, describeExprs(leftKeys)),
		Children: []*Node{node},
		Cols:     combined,
		Est:      est,
		Build: func() (exec.Operator, error) {
			ops, err := parts()
			if err != nil {
				return nil, err
			}
			return &exec.Gather{Children: ops, Ordered: true}, nil
		},
	}
	return rel
}

// liveChains drops the nil chains of key ranges a seek bound emptied. A
// relation has at least one chain, so when none is left it keeps one that
// yields no rows.
func liveChains(ops []exec.Operator) []exec.Operator {
	ops = slices.DeleteFunc(ops, func(op exec.Operator) bool { return op == nil })
	if len(ops) == 0 {
		ops = append(ops, &exec.Scan{Factory: func(*exec.Context, []bool) (exec.BatchIterator, error) {
			return &oneBatch{}, nil
		}})
	}
	return ops
}

// oneBatch yields its batch, if any, then the end: the one row of a SELECT
// without FROM, or nothing for a chain a seek bound emptied.
type oneBatch struct{ b *vec.Batch }

func (o *oneBatch) NextBatch() (*vec.Batch, error) {
	b := o.b
	o.b = nil
	return b, nil
}

func (o *oneBatch) Close() error { return nil }

// joinOutputEstimate estimates an equi-join's output cardinality from
// the post-filter input estimates and the join keys' NDVs (containment
// assumption: the smaller key domain is contained in the larger, so rows
// pair through max(NDV) distinct keys). Falls back to max(l, r) — exact
// for key/foreign-key joins — when either NDV is unknown.
func joinOutputEstimate(left, right *relation, leftKeyIdents, rightKeyIdents []*sqlparse.Ident) int64 {
	return stats.JoinCardinality(left.est, right.est,
		keysNDV(left, leftKeyIdents), keysNDV(right, rightKeyIdents))
}

// partitionedJoinRelation plans the hash join, the one operator for every
// equi-join the merge joins do not take, small or large: batches in,
// batches out, the build side in one columnar table, partitions whose
// build side exceeds the planner's JoinMemoryBudget spilled to the
// engine's spill store and re-joined per partition. Partitions cost
// nothing until they spill, so a join of a few rows takes the same
// fan-out rule as a large one. Statistics steer every physical knob: the
// build side comes from the post-filter estimates, the fan-out and spill
// pre-partitioning from the estimated build footprint, and the probe-side
// Bloom filter is dropped when nearly every probe row would pass it
// anyway.
func (pl *Planner) partitionedJoinRelation(left, right *relation,
	leftKeyIdents, rightKeyIdents []*sqlparse.Ident,
	leftKeys, rightKeys []expr.Expr, combined []ColMeta) *relation {

	// Build on the smaller estimated input; ties (and two unknowns) keep
	// the right side.
	buildLeft := left.est < right.est
	buildSide := "right"
	build, probe := right, left
	buildIdents, probeIdents := rightKeyIdents, leftKeyIdents
	if buildLeft {
		buildSide = "left"
		build, probe = left, right
		buildIdents, probeIdents = leftKeyIdents, rightKeyIdents
	}
	outEst := joinOutputEstimate(left, right, leftKeyIdents, rightKeyIdents)

	// Partition fan-out: when the estimated build footprint exceeds half
	// the memory budget per default partition, widen the fan-out so each
	// partition's build side still fits comfortably.
	partitions := pl.JoinPartitions
	if partitions <= 0 {
		partitions = exec.SpillPartitions
	}
	prePartition := 0
	var buildBytes int64
	if build.stats != nil && build.stats.AvgRowBytes > 0 && build.est > 0 {
		buildBytes = build.est * build.stats.AvgRowBytes
	}
	if buildBytes > 0 && pl.JoinMemoryBudget > 0 {
		if need := buildBytes/(pl.JoinMemoryBudget/2+1) + 1; need > int64(partitions) {
			partitions = int(nextPow2(need))
			if partitions > 256 {
				partitions = 256
			}
		}
		if buildBytes > pl.JoinMemoryBudget {
			// The build side cannot fit even after widening: pre-spill
			// enough partitions that the resident remainder fits, instead
			// of buffering everything and evicting mid-build.
			resident := int64(partitions) * pl.JoinMemoryBudget / buildBytes
			if pre := partitions - int(resident); pre > 0 {
				prePartition = pre
			}
		}
	}

	// Probe-side Bloom filter: skip it only when statistics say its pass
	// rate would be ~1 (nearly every probe key exists on the build side).
	bloom := true
	bNDV, pNDV := keysNDV(build, buildIdents), keysNDV(probe, probeIdents)
	if bNDV > 0 && pNDV > 0 {
		common := bNDV
		if pNDV < common {
			common = pNDV
		}
		if float64(common)/float64(pNDV) >= 0.75 {
			bloom = false
		}
	}

	buildEst := build.est
	leftNode, rightNode := left.node, right.node
	// Declared before buildOp: over a partitioned probe side the Build
	// factory lives on the gather node above, so the closure binds the join
	// operator to this display node's profile (spill and Bloom activity
	// then renders on the join line, not the exchange line).
	inner := &Node{
		Op:      "Hash Match (Partitioned Inner Join)",
		Cols:    combined,
		Est:     outEst,
		OwnProf: true,
	}
	buildOp := func() (exec.Operator, error) {
		j := &exec.PartitionedHashJoin{
			LeftKeys:          leftKeys,
			RightKeys:         rightKeys,
			LeftWidth:         len(left.cols),
			BuildLeft:         buildLeft,
			Partitions:        partitions,
			MemoryBudget:      pl.JoinMemoryBudget,
			Spill:             pl.Provider.SpillStore(),
			Bloom:             bloom,
			BuildRowsEstimate: buildEst,
			PrePartition:      prePartition,
		}
		if left.parts != nil && left.partsN > 1 {
			ops, err := left.parts()
			if err != nil {
				return nil, err
			}
			j.LeftParts = ops
		} else {
			op, err := buildChild(leftNode)
			if err != nil {
				return nil, err
			}
			j.Left = op
		}
		if right.parts != nil && right.partsN > 1 {
			ops, err := right.parts()
			if err != nil {
				return nil, err
			}
			j.RightParts = ops
		} else {
			op, err := buildChild(rightNode)
			if err != nil {
				return nil, err
			}
			j.Right = op
		}
		if inner.Prof != nil {
			return exec.InstrumentOp(j, inner.Prof), nil
		}
		return j, nil
	}
	detail := fmt.Sprintf("HASH:[%s]=[%s] BUILD:%s PARTITIONS:%d",
		describeExprs(leftKeys), describeExprs(rightKeys), buildSide, partitions)
	if bloom {
		detail += " BLOOM"
	}
	if prePartition > 0 {
		detail += fmt.Sprintf(" PRESPILL:%d", prePartition)
	}
	inner.Detail = detail
	inner.Children = []*Node{leftNode, rightNode}
	node := inner
	if probe.parts != nil && probe.partsN > 1 {
		// The operator probes its partitioned side with one worker per
		// chain and gathers their batches itself; the exchange is shown
		// where it happens.
		node = &Node{
			Op:       "Parallelism (Gather Streams)",
			Detail:   fmt.Sprintf("DOP %d", probe.partsN),
			Children: []*Node{inner},
			Cols:     combined,
			Est:      outEst,
			Build:    buildOp,
		}
	} else {
		inner.Build = buildOp
	}
	return &relation{node: node, cols: combined, est: outEst}
}

func identExprs(ids []*sqlparse.Ident) []sqlparse.Expr {
	out := make([]sqlparse.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}
