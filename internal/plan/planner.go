package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/vec"
)

// relation is an intermediate planning result: a materialized node plus
// physical properties the planner exploits (partitionability for parallel
// aggregation, ordering for stream aggregation and merge joins).
type relation struct {
	node *Node
	cols []ColMeta
	// parts builds up to partsN independent partition chains that
	// together produce the relation exactly once (a partitioned scan, a
	// range-partitioned merge join, a filter over either); nil when the
	// relation is not partitioned.
	parts  func() ([]exec.Operator, error)
	partsN int
	// ordered is the prefix column ordering of the output, if any: a
	// clustered or index scan's key, a merge join's left key.
	ordered []ColMeta
	// keyed is set on a clustered-table scan, partitioned or not: a merge
	// join with a partitioned side cuts both of its clustered sides at the
	// same key ranges through it.
	keyed *keyedScan
	// est is the estimated output cardinality (0 = unknown), post-filter
	// when predicates were pushed; join planning uses it to pick the
	// build side and decide on a parallel join.
	est int64
	// stats backs est with per-column distributions when the relation is
	// a (possibly filtered) base-table scan; join estimation reads key
	// NDVs and average row widths from it.
	stats *stats.TableStats
}

// keyedScan is a clustered-table scan as a range-partitioned merge join
// takes it: the table whose KeyRanges cut the join, the leaf that displays
// the scan, and the scan's one chain builder over key ranges of its leading
// key column (planNamedTable's own partitions come from it too).
type keyedScan struct {
	tab  *catalog.Table
	leaf *Node
	// chains returns one chain per range, clipped to the scan's seek bound,
	// filtered by its pushed predicate and bound to the leaf's profile; a
	// range the clip empties gives a nil chain.
	chains func(ranges [][2]*sqltypes.Value) ([]exec.Operator, error)
}

// PlanSelect plans a SELECT into a physical plan tree.
func (pl *Planner) PlanSelect(sel *sqlparse.Select) (*Node, error) {
	// FROM (with WHERE pushdown).
	var rel *relation
	var remaining []sqlparse.Expr
	if sel.From != nil {
		var conjuncts []sqlparse.Expr
		if sel.Where != nil {
			conjuncts = splitConjuncts(sel.Where)
		}
		var err error
		rel, remaining, err = pl.planFrom(sel.From, conjuncts)
		if err != nil {
			return nil, err
		}
	} else {
		if sel.Where != nil {
			return nil, fmt.Errorf("plan: WHERE without FROM")
		}
		// One batch of one row and no columns: SELECT 1 computes its
		// constants over it.
		rel = &relation{node: &Node{
			Op: "Constant Scan",
			Build: func() (exec.Operator, error) {
				return &exec.Scan{Factory: func(*exec.Context, []bool) (exec.BatchIterator, error) {
					return &oneBatch{vec.NewBatch(nil, 1)}, nil
				}}, nil
			},
		}}
	}
	// Residual WHERE that could not be pushed into any single side.
	if len(remaining) > 0 {
		b := &binder{pl: pl, scope: &scope{cols: rel.cols}}
		pred, err := b.bind(joinConjuncts(remaining))
		if err != nil {
			return nil, err
		}
		rel = filterRelation(rel, pred)
	}

	// Aggregation.
	subst := map[string]int{}
	aggSeen := map[string]*sqlparse.FuncCall{}
	var aggOrder []string
	for _, item := range sel.Items {
		if !item.Star {
			pl.collectAggCalls(item.Expr, aggSeen, &aggOrder)
		}
	}
	if sel.Having != nil {
		pl.collectAggCalls(sel.Having, aggSeen, &aggOrder)
	}
	for _, o := range sel.OrderBy {
		pl.collectAggCalls(o.Expr, aggSeen, &aggOrder)
	}
	grouped := len(sel.GroupBy) > 0 || len(aggOrder) > 0
	if grouped {
		var err error
		rel, err = pl.planAggregate(sel, rel, aggSeen, aggOrder, subst)
		if err != nil {
			return nil, err
		}
	}

	// HAVING.
	if sel.Having != nil {
		if !grouped {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		b := &binder{pl: pl, scope: &scope{}, aggSubst: subst}
		pred, err := b.bind(sel.Having)
		if err != nil {
			return nil, err
		}
		rel = filterRelation(rel, pred)
	}

	// Window functions (ROW_NUMBER() OVER (ORDER BY ...)).
	var windowCall *sqlparse.FuncCall
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if err := findWindow(item.Expr, &windowCall); err != nil {
			return nil, err
		}
	}
	if windowCall != nil {
		if !strings.EqualFold(windowCall.Name, "row_number") {
			return nil, fmt.Errorf("plan: unsupported window function %s", windowCall.Name)
		}
		b := pl.postBinder(rel, grouped, subst)
		var terms []sortTerm
		for _, o := range windowCall.Over.OrderBy {
			e, err := b.bind(o.Expr)
			if err != nil {
				return nil, err
			}
			terms = append(terms, sortTerm{e, o.Desc})
		}
		subst[exprKey(windowCall)] = len(rel.cols) // the sort emits the relation's columns; the number follows
		rel = pl.windowRelation(rel, terms)
	}

	// Projection.
	var outExprs []expr.Expr
	var outCols []ColMeta
	b := pl.postBinder(rel, grouped, subst)
	for _, item := range sel.Items {
		if item.Star {
			if grouped {
				return nil, fmt.Errorf("plan: SELECT * is not valid with GROUP BY")
			}
			for i, c := range rel.cols {
				if item.Qualifier != "" && !strings.EqualFold(c.Qual, item.Qualifier) {
					continue
				}
				outExprs = append(outExprs, &expr.Col{Idx: i, Name: c.Name})
				outCols = append(outCols, c)
			}
			continue
		}
		e, err := b.bind(item.Expr)
		if err != nil {
			return nil, err
		}
		outExprs = append(outExprs, e)
		outCols = append(outCols, ColMeta{Name: outputName(item)})
	}

	// ORDER BY: bind pre-projection (aliases fall back to select items).
	var terms []sortTerm
	for _, o := range sel.OrderBy {
		e, err := b.bind(o.Expr)
		if err != nil {
			// Alias reference?
			if id, ok := o.Expr.(*sqlparse.Ident); ok && id.Qualifier == "" {
				found := false
				for i, item := range sel.Items {
					if strings.EqualFold(item.Alias, id.Name) {
						e, found = outExprs[i], true
						break
					}
				}
				if found {
					terms = append(terms, sortTerm{e, o.Desc})
					continue
				}
			}
			return nil, err
		}
		terms = append(terms, sortTerm{e, o.Desc})
	}
	node := rel.node
	if len(terms) > 0 {
		if sel.Top >= 0 {
			node = pl.topNNode(sel.Top, terms, rel)
		} else {
			node = pl.sortNode(terms, rel)
		}
	} else if sel.Top >= 0 {
		child := node
		node = &Node{
			Op: "Top", Detail: fmt.Sprintf("TOP %d", sel.Top),
			Children: []*Node{child}, Cols: child.Cols,
			Est: limitEst(sel.Top, child.Est),
			Build: func() (exec.Operator, error) {
				c, err := buildChild(child)
				if err != nil {
					return nil, err
				}
				return &exec.Limit{N: sel.Top, Child: c}, nil
			},
		}
	}
	return newProjectNode(outExprs, outCols, node), nil
}

// limitEst caps a child estimate by a TOP N count.
func limitEst(n, childEst int64) int64 {
	if childEst > 0 && childEst < n {
		return childEst
	}
	return n
}

// postBinder returns a binder for expressions evaluated above the
// aggregation boundary (or above the base relation when not grouped).
func (pl *Planner) postBinder(rel *relation, grouped bool, subst map[string]int) *binder {
	if grouped {
		return &binder{pl: pl, scope: &scope{}, aggSubst: subst}
	}
	return &binder{pl: pl, scope: &scope{cols: rel.cols}, aggSubst: subst}
}

func outputName(item sqlparse.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*sqlparse.Ident); ok {
		return id.Name
	}
	if fc, ok := item.Expr.(*sqlparse.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return ""
}

func findWindow(e sqlparse.Expr, out **sqlparse.FuncCall) error {
	switch t := e.(type) {
	case *sqlparse.Unary:
		return findWindow(t.X, out)
	case *sqlparse.Binary:
		if err := findWindow(t.L, out); err != nil {
			return err
		}
		return findWindow(t.R, out)
	case *sqlparse.FuncCall:
		if t.Over != nil {
			if *out != nil && exprKey(*out) != exprKey(t) {
				return fmt.Errorf("plan: multiple distinct window functions are not supported")
			}
			*out = t
			return nil
		}
		for _, a := range t.Args {
			if err := findWindow(a, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// planAggregate builds the grouping node, choosing between parallel hash
// aggregation (Figure 9's plan), stream aggregation over ordered input
// (the consensus pipeline of Section 5.3.3), and plain hash aggregation.
func (pl *Planner) planAggregate(sel *sqlparse.Select, rel *relation,
	aggSeen map[string]*sqlparse.FuncCall, aggOrder []string, subst map[string]int) (*relation, error) {

	inputBinder := &binder{pl: pl, scope: &scope{cols: rel.cols}}
	groupExprs, err := inputBinder.bindAll(sel.GroupBy)
	if err != nil {
		return nil, err
	}
	for i, g := range sel.GroupBy {
		subst[exprKey(g)] = i
	}
	var aggSpecs []exec.AggSpec
	for j, key := range aggOrder {
		call := aggSeen[key]
		factory, _ := pl.Provider.Agg(call.Name)
		spec := exec.AggSpec{Name: strings.ToUpper(call.Name), Factory: factory}
		if !call.Star {
			args, err := inputBinder.bindAll(call.Args)
			if err != nil {
				return nil, err
			}
			spec.Args = args
		}
		aggSpecs = append(aggSpecs, spec)
		subst[key] = len(groupExprs) + j
	}

	// The aggregate touches only its grouping and argument columns, so
	// its inputs can leave every other column unmaterialized — on lazy
	// columnar scans those cells are never decoded at all (COUNT(*) over a
	// filtered scan decodes nothing), a row source packs only these columns
	// into the batches the aggregate pulls, and a join below stores only
	// these on its build side.
	aggNeeds := make([]bool, len(rel.cols))
	for _, g := range groupExprs {
		expr.MarkCols(g, aggNeeds)
	}
	for _, spec := range aggSpecs {
		for _, a := range spec.Args {
			expr.MarkCols(a, aggNeeds)
		}
	}

	outCols := make([]ColMeta, 0, len(groupExprs)+len(aggSpecs))
	for _, g := range sel.GroupBy {
		name := ""
		if id, ok := g.(*sqlparse.Ident); ok {
			name = id.Name
		}
		outCols = append(outCols, ColMeta{Name: name})
	}
	for _, key := range aggOrder {
		outCols = append(outCols, ColMeta{Name: strings.ToLower(aggSeen[key].Name)})
	}

	groupDesc := describeExprs(groupExprs)
	aggDesc := describeAggs(aggSpecs)
	estGroups := groupCountEstimate(rel, sel.GroupBy)

	// Stream aggregation when the input ordering covers the group-by
	// columns as a prefix.
	if len(groupExprs) > 0 && orderedCovers(rel, sel.GroupBy) {
		child := rel.node
		node := &Node{
			Op:       "Stream Aggregate",
			Detail:   fmt.Sprintf("GROUP BY:[%s] AGG:[%s]", groupDesc, aggDesc),
			Children: []*Node{child},
			Cols:     outCols,
			Est:      estGroups,
			Build: func() (exec.Operator, error) {
				c, err := buildChild(child)
				if err != nil {
					return nil, err
				}
				c.PruneColumns(aggNeeds)
				return &exec.StreamAggregate{GroupBy: groupExprs, Aggs: aggSpecs, Child: c}, nil
			},
		}
		return &relation{node: node, cols: outCols, est: estGroups}, nil
	}

	// Partial/final parallel hash aggregation over a partitionable input:
	// one budgeted partial aggregate per worker below the exchange, a
	// final AggState.Merge pass above it. Partials that exceed the agg
	// memory budget freeze partitions and spill raw rows to temp files.
	if rel.parts != nil && rel.partsN > 1 {
		parts := rel.parts
		partsN := rel.partsN
		scanChildren := rel.node.Children
		node := &Node{
			Op:     "Hash Match (Final Aggregate, merge partials)",
			Detail: fmt.Sprintf("GROUP BY:[%s] AGG:[%s]", groupDesc, aggDesc),
			Children: []*Node{{
				Op:     "Parallelism (Gather Streams)",
				Detail: fmt.Sprintf("DOP %d", partsN),
				Children: []*Node{{
					Op:       "Hash Match (Partial Aggregate, spillable)",
					Detail:   fmt.Sprintf("GROUP BY:[%s] BUDGET:%d", groupDesc, pl.AggMemoryBudget),
					Children: scanChildren,
					Cols:     outCols,
				}},
				Cols: outCols,
			}},
			Cols: outCols,
			Est:  estGroups,
			Build: func() (exec.Operator, error) {
				children, err := parts()
				if err != nil {
					return nil, err
				}
				for _, c := range children {
					c.PruneColumns(aggNeeds)
				}
				return &exec.SpillableAggregate{
					GroupBy:      groupExprs,
					Aggs:         aggSpecs,
					Parts:        children,
					MemoryBudget: pl.AggMemoryBudget,
					Spill:        pl.Provider.SpillStore(),
				}, nil
			},
		}
		return &relation{node: node, cols: outCols, est: estGroups}, nil
	}

	child := rel.node
	node := &Node{
		Op:       "Hash Match (Aggregate)",
		Detail:   fmt.Sprintf("GROUP BY:[%s] AGG:[%s]", groupDesc, aggDesc),
		Children: []*Node{child},
		Cols:     outCols,
		Est:      estGroups,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			c.PruneColumns(aggNeeds)
			return &exec.SpillableAggregate{
				GroupBy:      groupExprs,
				Aggs:         aggSpecs,
				Child:        c,
				MemoryBudget: pl.AggMemoryBudget,
				Spill:        pl.Provider.SpillStore(),
			}, nil
		},
	}
	return &relation{node: node, cols: outCols, est: estGroups}, nil
}

// groupCountEstimate estimates the number of GROUP BY groups: the NDV
// product of the grouping columns when the input is a base-table scan
// with statistics (capped by the input estimate), 1 for a global
// aggregate, 0 when unknown.
func groupCountEstimate(rel *relation, groupBy []sqlparse.Expr) int64 {
	if len(groupBy) == 0 {
		return 1
	}
	if rel.stats == nil {
		return 0
	}
	idents := make([]*sqlparse.Ident, 0, len(groupBy))
	for _, g := range groupBy {
		id, ok := g.(*sqlparse.Ident)
		if !ok {
			return 0
		}
		idents = append(idents, id)
	}
	return keysNDV(rel, idents)
}

func describeExprs(list []expr.Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

func describeAggs(specs []exec.AggSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		if len(s.Args) == 0 {
			parts[i] = s.Name + "(*)"
		} else {
			parts[i] = s.Name + "(" + describeExprs(s.Args) + ")"
		}
	}
	return strings.Join(parts, ", ")
}

// orderedCovers reports whether rel's physical ordering starts with the
// GROUP BY columns (simple identifiers only).
func orderedCovers(rel *relation, groupBy []sqlparse.Expr) bool {
	if len(rel.ordered) < len(groupBy) {
		return false
	}
	for i, g := range groupBy {
		id, ok := g.(*sqlparse.Ident)
		if !ok {
			return false
		}
		c := rel.ordered[i]
		if !strings.EqualFold(c.Name, id.Name) {
			return false
		}
		if id.Qualifier != "" && !strings.EqualFold(c.Qual, id.Qualifier) {
			return false
		}
	}
	return true
}

func filterRelation(rel *relation, pred expr.Expr) *relation {
	node := newFilterNode(pred, rel.node)
	out := &relation{node: node, cols: rel.cols, ordered: rel.ordered, est: rel.est, stats: rel.stats}
	if rel.parts != nil {
		inner := rel.parts
		out.partsN = rel.partsN
		out.parts = func() ([]exec.Operator, error) {
			children, err := inner()
			if err != nil {
				return nil, err
			}
			for i := range children {
				children[i] = &exec.Filter{Pred: pred, Child: children[i]}
				if node.Prof != nil {
					children[i] = exec.InstrumentOp(children[i], node.Prof)
				}
			}
			return children, nil
		}
	}
	return out
}

// windowRelation plans ROW_NUMBER() OVER (ORDER BY ...): a counter over
// the input in window order, which sortNode provides — a Sort, a merge of
// per-partition sorts (EXPLAIN shows the order there), or nothing when the
// input already streams in that order (index or clustered scans). A
// grouped input has neither partitions nor an order, so it is sorted whole.
func (pl *Planner) windowRelation(rel *relation, terms []sortTerm) *relation {
	cols := append(append([]ColMeta{}, rel.cols...), ColMeta{Name: "row_number"})
	child := pl.sortNode(terms, rel)
	detail := ""
	if child == rel.node {
		detail = fmt.Sprintf("ORDER BY:[%s] (input ordered)", describeSortTerms(terms))
	}
	node := &Node{
		Op:       "Sequence Project (ROW_NUMBER)",
		Detail:   detail,
		Children: []*Node{child},
		Cols:     cols,
		Est:      rel.est,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			return &exec.RowNumber{Child: c}, nil
		},
	}
	return &relation{node: node, cols: cols, est: rel.est}
}

// sortTerm is one ORDER BY term as bound; sortColumns places it on a
// column for the sort operators.
type sortTerm struct {
	expr expr.Expr
	desc bool
}

func describeSortTerms(terms []sortTerm) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		dir := "ASC"
		if t.desc {
			dir = "DESC"
		}
		parts[i] = t.expr.String() + " " + dir
	}
	return strings.Join(parts, ", ")
}

// sortColumns is the sort terms placed on columns of a relation's rows: a
// column reference is its own column, and every other term is computed
// into a column after the relation's by exprs (the relation's columns,
// then those terms; nil when every term is a column).
type sortColumns struct {
	keys  []exec.SortKey
	exprs []expr.Expr
	width int // the relation's columns
}

func placeSortTerms(terms []sortTerm, rel *relation) sortColumns {
	sc := sortColumns{width: len(rel.cols)}
	for _, t := range terms {
		c, ok := t.expr.(*expr.Col)
		if !ok {
			if sc.exprs == nil {
				for i, c := range rel.cols {
					sc.exprs = append(sc.exprs, &expr.Col{Idx: i, Name: c.Name})
				}
			}
			c = &expr.Col{Idx: len(sc.exprs)}
			sc.exprs = append(sc.exprs, t.expr)
		}
		sc.keys = append(sc.keys, exec.SortKey{Col: c.Idx, Desc: t.desc})
	}
	return sc
}

// under returns below, or the Compute Scalar of the computed terms over
// it. Over partition chains that node only displays: compute puts a
// projection on each chain and profiles it there.
func (sc sortColumns) under(below []*Node, partitioned bool) []*Node {
	if sc.exprs == nil {
		return below
	}
	n := newProjectNode(sc.exprs, make([]ColMeta, len(sc.exprs)), below[0])
	if partitioned {
		n.Children, n.Build, n.OwnProf = below, nil, true
	}
	return []*Node{n}
}

// compute appends the computed terms to a partition chain, profiled on the
// node under displays.
func (sc sortColumns) compute(op exec.Operator, shown *Node) exec.Operator {
	if sc.exprs == nil {
		return op
	}
	op = &exec.Project{Exprs: sc.exprs, Child: op, InputWidth: sc.width}
	if shown.Prof != nil {
		op = exec.InstrumentOp(op, shown.Prof)
	}
	return op
}

// drop takes the computed terms off a sort's output: a sort emits the
// relation's columns, which a row number follows.
func (sc sortColumns) drop(op exec.Operator) exec.Operator {
	if sc.exprs == nil {
		return op
	}
	return &exec.Project{Exprs: sc.exprs[:sc.width], Child: op, InputWidth: len(sc.exprs)}
}

// sortNode plans ORDER BY: an external merge sort under the sort memory
// budget, parallelized into per-partition sorts below an order-
// preserving merge exchange when the input is partitionable.
func (pl *Planner) sortNode(terms []sortTerm, rel *relation) *Node {
	if rel.parts != nil && rel.partsN > 1 {
		return pl.parallelSortNode(terms, rel)
	}
	// Interesting order: a serial input already streaming in the requested
	// order (index scan, clustered scan, ordered merge join) needs no sort
	// at all.
	if sortKeysCoveredBy(rel, terms) {
		return rel.node
	}
	sc := placeSortTerms(terms, rel)
	child := sc.under([]*Node{rel.node}, false)[0]
	return &Node{
		Op:       "Sort",
		Detail:   fmt.Sprintf("ORDER BY:[%s]", describeSortTerms(terms)),
		Children: []*Node{child},
		Cols:     rel.node.Cols,
		Est:      rel.est,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			return sc.drop(&exec.Sort{
				Keys:         sc.keys,
				Child:        c,
				MemoryBudget: pl.SortMemoryBudget,
				Spill:        pl.Provider.SpillStore(),
			}), nil
		},
	}
}

// parallelSortNode is the paper-style parallel sort plan: each partition
// chain sorts independently (sharing the sort budget), and a loser-tree
// merge exchange preserves the global order above them. Key ties break
// by partition index, so equal keys keep table order — the same output
// as the serial stable sort.
func (pl *Planner) parallelSortNode(terms []sortTerm, rel *relation) *Node {
	sc := placeSortTerms(terms, rel)
	below := sc.under(rel.node.Children, true)
	inner := &Node{
		Op:       "Sort",
		Detail:   fmt.Sprintf("ORDER BY:[%s] BUDGET:%d", describeSortTerms(terms), pl.SortMemoryBudget),
		Children: below,
		Cols:     rel.node.Cols,
	}
	return &Node{
		Op:       "Parallelism (Merge Gather, ordered)",
		Detail:   fmt.Sprintf("DOP %d ORDER BY:[%s]", rel.partsN, describeSortTerms(terms)),
		Children: []*Node{inner},
		Cols:     rel.node.Cols,
		Est:      rel.est,
		Build: func() (exec.Operator, error) {
			ops, err := rel.parts()
			if err != nil {
				return nil, err
			}
			perBudget := pl.SortMemoryBudget
			if perBudget > 0 && len(ops) > 1 {
				perBudget = max(perBudget/int64(len(ops)), 1)
			}
			sorts := make([]*exec.Sort, len(ops))
			for i, op := range ops {
				sorts[i] = &exec.Sort{Keys: sc.keys, Child: sc.compute(op, below[0]), MemoryBudget: perBudget,
					Spill: pl.Provider.SpillStore()}
			}
			return sc.drop(&exec.MergeSorted{Keys: sc.keys, Children: sorts}), nil
		},
	}
}

// topNNode plans TOP n ORDER BY. Over an unordered partitionable input
// the TopN is pushed below the exchange: each partition keeps its own
// top n, so the gather merges DOP·n candidate rows instead of the whole
// input, and the final TopN reduces those to n. Ordered inputs (merge
// gathers off clustered scans) keep the serial TopN above the exchange
// so key-order tie-breaking is preserved.
func (pl *Planner) topNNode(n int64, terms []sortTerm, rel *relation) *Node {
	sc := placeSortTerms(terms, rel)
	child := rel.node
	if rel.parts != nil && rel.partsN > 1 && rel.ordered == nil && n > 0 {
		parts := rel.parts
		below := child.Children
		if len(below) == 0 {
			below = []*Node{child}
		}
		below = sc.under(below, true)
		return &Node{
			Op:     "Top N Sort",
			Detail: fmt.Sprintf("TOP %d ORDER BY:[%s] (merge partials)", n, describeSortTerms(terms)),
			Children: []*Node{{
				Op:     "Parallelism (Gather Streams)",
				Detail: fmt.Sprintf("DOP %d", rel.partsN),
				Children: []*Node{{
					Op:       "Top N Sort (per-partition)",
					Detail:   fmt.Sprintf("TOP %d ORDER BY:[%s]", n, describeSortTerms(terms)),
					Children: below,
					Cols:     child.Cols,
					Est:      limitEst(n, child.Est),
				}},
				Cols: child.Cols,
			}},
			Cols: child.Cols,
			Est:  limitEst(n, child.Est),
			Build: func() (exec.Operator, error) {
				ops, err := parts()
				if err != nil {
					return nil, err
				}
				tops := make([]exec.Operator, len(ops))
				for i, op := range ops {
					tops[i] = &exec.TopN{N: n, Keys: sc.keys, Child: sc.compute(op, below[0])}
				}
				// Drained in partition order, the candidates reach the
				// final TopN in table order, so ties at the n-th key
				// resolve as the serial plan resolves them.
				g := &exec.Gather{Children: tops, Ordered: true}
				return sc.drop(&exec.TopN{N: n, Keys: sc.keys, Child: g}), nil
			},
		}
	}
	child = sc.under([]*Node{child}, false)[0]
	return &Node{
		Op:       "Top N Sort",
		Detail:   fmt.Sprintf("TOP %d ORDER BY:[%s]", n, describeSortTerms(terms)),
		Children: []*Node{child},
		Cols:     rel.node.Cols,
		Est:      limitEst(n, child.Est),
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			return sc.drop(&exec.TopN{N: n, Keys: sc.keys, Child: c}), nil
		},
	}
}
