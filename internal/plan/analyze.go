package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Instrument prepares the plan for profiled execution: every executable
// node gets a fresh obs.OpProfile and its Build factory is replaced
// with one that wraps the built operator in exec.Instrument. With timed
// set, wrappers also record wall time per node — the EXPLAIN ANALYZE
// mode; without it only counters accrue, cheap enough to stay on for
// every query.
//
// Plan trees are built fresh per statement, so mutating Build in place
// is safe; planner closures that construct per-partition operator
// chains directly (bypassing child Build factories) read Node.Prof at
// build time and wrap those chains themselves — InstrumentOp is
// idempotent per profile, so the double coverage never double-wraps.
func (n *Node) Instrument(timed bool) {
	if n == nil {
		return
	}
	if n.Build != nil || n.OwnProf {
		prof := &obs.OpProfile{Timed: timed}
		n.Prof = prof
		if n.Build != nil {
			build := n.Build
			n.Build = func() (exec.Operator, error) {
				op, err := build()
				if err != nil {
					return nil, err
				}
				return exec.InstrumentOp(op, prof), nil
			}
		}
	}
	for _, c := range n.Children {
		c.Instrument(timed)
	}
}

// SpillBytes sums the spill volume recorded across the plan's profiles
// (0 on uninstrumented plans).
func (n *Node) SpillBytes() int64 {
	if n == nil {
		return 0
	}
	var total int64
	if n.Prof != nil {
		total, _, _ = n.Prof.Spill()
	}
	for _, c := range n.Children {
		total += c.SpillBytes()
	}
	return total
}

// ExplainAnalyze renders the executed plan in the EXPLAIN format
// annotated with each node's actual row count, the estimate ratio, per
// -operator wall time (cumulative and self), and detail lines for
// spill, Bloom, zone-map and buffer-pool activity. total is the statement's
// end-to-end wall time, rows the count it returned.
//
// Display-only nodes without their own profile (synthetic exchange,
// partial-aggregate and per-partition nodes, whose work an ancestor's
// operator does) print their estimate alone, as in EXPLAIN: every actual
// count printed is the node's own.
func (n *Node) ExplainAnalyze(total time.Duration, rows int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN ANALYZE (total %s, %d rows returned)\n", fmtDuration(total), rows)
	n.explainAnalyze(&sb, 0)
	return sb.String()
}

func (n *Node) explainAnalyze(sb *strings.Builder, depth int) {
	p := n.Prof
	sb.WriteString(strings.Repeat("   ", depth))
	sb.WriteString("|--")
	sb.WriteString(n.Op)
	if n.Detail != "" {
		sb.WriteString(" ")
		sb.WriteString(n.Detail)
	}
	if p != nil {
		actual := p.Rows.Load()
		fmt.Fprintf(sb, " (est=%d rows, actual=%d rows, off by %s)", n.Est, actual, estRatio(n.Est, actual))
		if batches := p.Batches.Load(); batches > 0 {
			fmt.Fprintf(sb, " batches=%d", batches)
		}
	} else if n.Est > 0 {
		fmt.Fprintf(sb, " (est=%d rows)", n.Est)
	}
	if n.vectorized() {
		sb.WriteString(" vectorized")
	}
	if p != nil && p.Timed {
		cum := time.Duration(p.WallNS.Load())
		self := cum - childWall(n, p)
		if self < 0 {
			self = 0
		}
		fmt.Fprintf(sb, " time=%s (self %s)", fmtDuration(cum), fmtDuration(self))
	}
	sb.WriteString("\n")
	if p != nil {
		pad := strings.Repeat("   ", depth+1) + "   "
		if b, r, rows := p.Spill(); b != 0 || r != 0 || rows != 0 {
			fmt.Fprintf(sb, "%sspill: %s in %d runs (%d rows)\n", pad, fmtBytes(b), r, rows)
		}
		if c, d := p.Get(obs.JoinBloomChecks), p.Get(obs.JoinBloomDrops); c != 0 {
			fmt.Fprintf(sb, "%sbloom: %d checked, %d dropped (%.1f%%)\n", pad, c, d, 100*float64(d)/float64(c))
		}
		if c := p.Get(obs.ScanZoneConsidered); c != 0 {
			fmt.Fprintf(sb, "%szone: %d/%d pages skipped\n", pad, p.Get(obs.ScanZoneSkippedPages), c)
		}
		if h, m := p.Get(obs.PoolHits), p.Get(obs.PoolMisses); h != 0 || m != 0 {
			fmt.Fprintf(sb, "%spool: %d hits, %d misses\n", pad, h, m)
		}
	}
	for _, c := range n.Children {
		c.explainAnalyze(sb, depth+1)
	}
}

// childWall sums the cumulative wall time of the node's children that
// carry their own profiles (distinct from own — partition chains share
// the display node's profile and must not subtract from themselves).
func childWall(n *Node, own *obs.OpProfile) time.Duration {
	seen := map[*obs.OpProfile]bool{own: true}
	var total int64
	var walk func(c *Node)
	walk = func(c *Node) {
		if c.Prof != nil && !seen[c.Prof] {
			seen[c.Prof] = true
			total += c.Prof.WallNS.Load()
			return // its own children subtract from it, not from us
		}
		for _, cc := range c.Children {
			walk(cc)
		}
	}
	for _, c := range n.Children {
		walk(c)
	}
	return time.Duration(total)
}

// estRatio formats how far the actual cardinality landed from the
// estimate, as a ">= 1x" factor with direction (e.g. "12.0x under"
// when the estimate was 12x too low). Zeroes clamp to 1 so the ratio
// is always finite.
func estRatio(est, actual int64) string {
	e, a := est, actual
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	switch {
	case a > e:
		return fmt.Sprintf("%.1fx under", float64(a)/float64(e))
	case e > a:
		return fmt.Sprintf("%.1fx over", float64(e)/float64(a))
	default:
		return "1.0x"
	}
}

// fmtDuration renders a duration with millisecond-scale precision.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
