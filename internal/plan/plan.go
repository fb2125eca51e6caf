// Package plan binds parsed SQL against the catalog and produces physical
// plans: operator trees that execute via package exec and render as the
// indented plan text of the paper's Figures 9 and 10. The planner makes
// the same physical decisions the paper highlights — predicate pushdown,
// hash vs merge join on inputs ordered by the join key, parallel hash
// aggregation with partial/final merge, and parallel range-partitioned
// merge joins.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// TVF is a table-valued function — the pull-model extension of the paper's
// Section 4.1. Schema must tolerate nil argument values (CROSS APPLY binds
// arguments per row). Iterator gets the statement's context: a function
// that reads a table reads it under the statement's snapshot.
type TVF interface {
	Schema(args []sqltypes.Value) ([]catalog.Column, error)
	Iterator(ctx *exec.Context, args []sqltypes.Value) (exec.RowIterator, error)
}

// Provider supplies catalog lookups and physical access paths; implemented
// by the engine (package core).
type Provider interface {
	// Table resolves a base table, or nil.
	Table(name string) *catalog.Table
	// Scalar resolves a scalar function (built-in or UDF).
	Scalar(name string) (expr.ScalarFunc, bool)
	// Agg resolves an aggregate function (built-in or UDA).
	Agg(name string) (exec.AggFactory, bool)
	// TVF resolves a table-valued function.
	TVF(name string) (TVF, bool)
	// ScanPartitionsPruned returns `parts` independent operators that
	// together scan a heap table exactly once (page ranges, or a single full
	// scan when parts == 1), skipping sealed pages whose zone-map min/max
	// summaries provably cannot satisfy every filter. Filters are advisory
	// (engines without zone maps may ignore them) and strictly conservative,
	// so a pruned scan returns exactly the rows the full scan would.
	ScanPartitionsPruned(t *catalog.Table, parts int, filters []storage.ZoneFilter) ([]exec.Operator, error)
	// HeapPageStats prices a zone-map-pruned heap scan: how many sealed
	// pages survive the filters, and the total page count. (0, 0) means
	// "no information" and the planner falls back to cardinality-based
	// page costing.
	HeapPageStats(t *catalog.Table, filters []storage.ZoneFilter) (kept, total int64)
	// IndexScan returns a serial row source scanning a named secondary
	// index over [lo, hi] bounds on its first key column (nil = open,
	// loInc/hiInc select inclusive bounds), emitting heap rows in
	// index-key order.
	IndexScan(t *catalog.Table, idxName string, lo, hi *sqltypes.Value, loInc, hiInc bool) (*exec.Source, error)
	// OrderedScanRange returns an operator scanning a clustered table in
	// primary-key order restricted to [lo, hi) on the first key column;
	// nil bounds are unbounded.
	OrderedScanRange(t *catalog.Table, lo, hi *sqltypes.Value) (exec.Operator, error)
	// KeyRanges splits a clustered table's first (integer) key column
	// into up to `parts` contiguous ranges: the partitions of a clustered
	// scan and of a range-partitioned merge join.
	KeyRanges(t *catalog.Table, parts int) ([][2]*sqltypes.Value, error)
	// RowCountEstimate guides parallelism decisions.
	RowCountEstimate(t *catalog.Table) int64
	// Stats returns the table's collected statistics (ANALYZE), or nil
	// when none exist or the table has drifted too far since collection.
	// The planner uses them for predicate selectivity, join output
	// cardinality, build-side choice and spill pre-partitioning.
	Stats(t *catalog.Table) *stats.TableStats
	// SpillStore creates temp files for joins that exceed the join memory
	// budget; may return nil when the engine cannot spill (joins then fail
	// rather than exceed the budget).
	SpillStore() exec.SpillStore
}

// ColMeta describes one output column of a plan node.
type ColMeta struct {
	Qual string // table alias/qualifier, may be empty
	Name string
}

// Node is a physical plan node: display metadata plus a Build factory that
// instantiates fresh exec operators (parallel plans call Build once per
// partition chain).
type Node struct {
	Op       string
	Detail   string
	Children []*Node
	Cols     []ColMeta
	// Est is the planner's estimated output cardinality (0 = unknown);
	// EXPLAIN renders it so estimate quality is visible and testable.
	Est   int64
	Build func() (exec.Operator, error)
	// Prof is the node's execution profile, allocated by Instrument
	// before the plan builds. Planner closures that construct operators
	// outside the Build chain (per-partition chains handed to exchanges)
	// read it at build time to attribute those operators to the node
	// that displays them; it stays nil on uninstrumented plans.
	Prof *obs.OpProfile
	// OwnProf marks a display-only node (Build == nil) whose profile is
	// still populated — a planner closure wraps the operators it stands
	// for. Instrument allocates profiles for these too.
	OwnProf bool
}

// Explain renders the plan in the indented style of the paper's plan
// figures.
func (n *Node) Explain() string {
	var sb strings.Builder
	n.explain(&sb, 0)
	return sb.String()
}

func (n *Node) explain(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("   ", depth))
	sb.WriteString("|--")
	sb.WriteString(n.Op)
	if n.Detail != "" {
		sb.WriteString(" ")
		sb.WriteString(n.Detail)
	}
	if n.Est > 0 {
		fmt.Fprintf(sb, " (est=%d rows)", n.Est)
	}
	if n.vectorized() {
		sb.WriteString(" vectorized")
	}
	sb.WriteString("\n")
	for _, c := range n.Children {
		c.explain(sb, depth+1)
	}
}

// rowInternal names the nodes whose operator still works a row at a time
// inside — the sort family, the apply — or packs the rows of a row source
// (a TVF, an index scan, VALUES).
var rowInternal = map[string]bool{
	"Sort":                                true,
	"Parallelism (Merge Gather, ordered)": true,
	"Top N Sort":                          true,
	"Top N Sort (per-partition)":          true,
	"Nested Loops (Cross Apply)":          true,
	"Table-valued Function":               true,
	"Index Scan":                          true,
	"Constant Scan":                       true,
}

// vectorized is the one rule behind EXPLAIN's "vectorized" annotation: a
// node carries it when the operator it shows computes on typed vectors —
// table scan leaves (always exec.Scan), filters, projections, TOP,
// exchanges, the hash and merge joins, the aggregates. Every operator exchanges batches, so what the
// annotation leaves unmarked is the work still to be done inside operators
// (ROADMAP item 2), not a second engine.
func (n *Node) vectorized() bool { return !rowInternal[n.Op] }

// Planner turns SELECT ASTs into physical plans.
type Planner struct {
	Provider Provider
	// DOP is the maximum degree of parallelism (usually NumCPU).
	DOP int
	// ParallelThreshold is the minimum estimated row count before the
	// planner considers a parallel plan.
	ParallelThreshold int64
	// JoinMemoryBudget caps the bytes of build-side rows a hash join may
	// hold in memory before partitions spill to disk (0 = unlimited).
	JoinMemoryBudget int64
	// JoinPartitions is the hash fan-out of partitioned joins (0:
	// exec.SpillPartitions).
	JoinPartitions int
	// SortMemoryBudget caps the bytes a sort (ORDER BY, ROW_NUMBER) may
	// buffer before spilling sorted runs to disk (0 = unlimited). A
	// parallel sort divides it across its per-partition sorts.
	SortMemoryBudget int64
	// AggMemoryBudget caps the bytes of resident group state a hash
	// aggregate may hold before partitions spill (0 = unlimited), divided
	// across the partial aggregates of a parallel plan.
	AggMemoryBudget int64
	// ForcePath overrides base-table access-path costing for testing:
	// "full" (heap scan, no zone filters, no index), "zonemap" (heap scan
	// with zone filters) or "index" (index scan whenever one applies).
	// Empty selects by estimated page I/O. A forced path that does not
	// apply (no sargable index, no filters) degrades to the full scan.
	ForcePath string
	// Sink counts the access path chosen for each planned base-table scan
	// (the engine passes its own, so the counts survive planner rebuilds).
	Sink obs.Sink
}

// Default operator budgets: 64 MB keeps even DOP-wide joins and the
// blocking operators inside a fraction of the default buffer pool while
// staying far above anything the paper's queries buffer in memory —
// spilling is the out-of-core escape hatch, not the common path.
const (
	DefaultJoinMemoryBudget = 64 << 20
	DefaultSortMemoryBudget = 64 << 20
	DefaultAggMemoryBudget  = 64 << 20
)

// NewPlanner returns a planner with the given provider and DOP.
//
// The default ParallelThreshold is low: with the sharded buffer pool,
// parallel workers no longer serialize on a pool mutex, so the
// break-even table size for a parallel scan is a few pages of rows, not
// tens of thousands.
func NewPlanner(p Provider, dop int) *Planner {
	if dop < 1 {
		dop = 1
	}
	return &Planner{
		Provider:          p,
		DOP:               dop,
		ParallelThreshold: 2_048,
		JoinMemoryBudget:  DefaultJoinMemoryBudget,
		SortMemoryBudget:  DefaultSortMemoryBudget,
		AggMemoryBudget:   DefaultAggMemoryBudget,
	}
}

// partitionCount decides the degree of parallelism for a scan over an
// estimated est rows: serial below the threshold, then one partition per
// ParallelThreshold rows up to DOP, so small-but-parallel tables do not
// pay exchange overhead for idle workers.
func (pl *Planner) partitionCount(est int64) int {
	if pl.DOP <= 1 || est < pl.ParallelThreshold {
		return 1
	}
	n := int64(pl.DOP)
	if pl.ParallelThreshold > 0 {
		if maxUseful := est / pl.ParallelThreshold; maxUseful < n {
			n = maxUseful
		}
	}
	if n < 2 {
		n = 2
	}
	return int(n)
}

func buildChild(n *Node) (exec.Operator, error) {
	if n.Build == nil {
		return nil, fmt.Errorf("plan: node %q is not executable", n.Op)
	}
	return n.Build()
}

// newFilterNode wraps a child with a predicate filter (selection-vector
// updates over columnar batches). The filter's selectivity is unknown at
// this level (estimable predicates were pushed into scans), so the child
// estimate carries through unreduced.
func newFilterNode(pred expr.Expr, child *Node) *Node {
	return &Node{
		Op:       "Filter",
		Detail:   fmt.Sprintf("WHERE:(%s)", pred),
		Children: []*Node{child},
		Cols:     child.Cols,
		Est:      child.Est,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			return &exec.Filter{Pred: pred, Child: c}, nil
		},
	}
}

// newProjectNode wraps a child with computed output expressions,
// evaluated batch-at-a-time (column references pass vectors through
// unchanged, preserving dictionary encoding).
func newProjectNode(exprs []expr.Expr, cols []ColMeta, child *Node) *Node {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
		exprs[i] = expr.FoldConstants(e) // constant subtrees evaluate once, here
	}
	return &Node{
		Op:       "Compute Scalar",
		Detail:   fmt.Sprintf("DEFINE:[%s]", strings.Join(parts, ", ")),
		Children: []*Node{child},
		Cols:     cols,
		Est:      child.Est,
		Build: func() (exec.Operator, error) {
			c, err := buildChild(child)
			if err != nil {
				return nil, err
			}
			return &exec.Project{Exprs: exprs, Child: c, InputWidth: len(child.Cols)}, nil
		},
	}
}
