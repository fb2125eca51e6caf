package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// instrumentFlushEvery bounds how many produced rows an Instrument
// buffers locally before flushing to the shared atomic counter. One
// wrapper is always driven by a single goroutine, so the local counter
// needs no synchronization; flushing in chunks keeps the always-on
// cost of row counting to roughly one atomic add per thousand rows.
const instrumentFlushEvery = 1024

// profFrom returns the profile of the nearest enclosing instrumented
// operator (nil when the query runs uninstrumented; obs.OpProfile
// methods are nil-safe).
func profFrom(ctx *Context) *obs.OpProfile {
	if ctx == nil {
		return nil
	}
	return ctx.Prof
}

// InstrumentOp wraps op so its output rows (and batches, for batch
// operators) count into prof, and so everything below it attributes
// spill/Bloom/pool work to prof through the Context. Batch operators
// keep their batch capability — the wrapper implements BatchOperator
// and forwards column pruning — so instrumented plans build exactly
// like uninstrumented ones. Wrapping is idempotent per profile: an op
// already instrumented for prof is returned unchanged (partition chains
// are wrapped inside the planner's parts closures, and the plan-level
// walk must not wrap them again).
func InstrumentOp(op Operator, prof *obs.OpProfile) Operator {
	switch w := op.(type) {
	case *Instrument:
		if w.Prof == prof {
			return op
		}
	case *VecInstrument:
		if w.Prof == prof {
			return op
		}
	}
	if bo, ok := op.(BatchOperator); ok {
		return &VecInstrument{Child: bo, Prof: prof}
	}
	return &Instrument{Child: op, Prof: prof}
}

// Instrument is the row-path profile wrapper: it counts rows out of
// Child into Prof and, when Prof.Timed is set, accumulates the wall
// time spent inside Open/Next calls (which is cumulative over the whole
// child subtree — the renderer subtracts child profiles to get self
// time).
type Instrument struct {
	Child Operator
	Prof  *obs.OpProfile

	// childCtx is the Context handed to Child: a copy of the parent's
	// with Prof swapped in. It must outlive Open — children retain the
	// pointer — so it lives on the wrapper, not on Open's stack.
	childCtx Context
	local    int64
}

// Open opens the child under a Context that attributes to Prof.
func (in *Instrument) Open(ctx *Context) error {
	in.local = 0
	in.childCtx = *ctx
	in.childCtx.Prof = in.Prof
	if in.Prof != nil && in.Prof.Timed {
		t0 := time.Now()
		err := in.Child.Open(&in.childCtx)
		in.Prof.WallNS.Add(int64(time.Since(t0)))
		return err
	}
	return in.Child.Open(&in.childCtx)
}

// Next forwards to the child, counting produced rows.
func (in *Instrument) Next() (sqltypes.Row, bool, error) {
	if in.Prof != nil && in.Prof.Timed {
		t0 := time.Now()
		row, ok, err := in.Child.Next()
		in.Prof.WallNS.Add(int64(time.Since(t0)))
		if ok {
			in.bump()
		}
		return row, ok, err
	}
	row, ok, err := in.Child.Next()
	if ok {
		in.bump()
	}
	return row, ok, err
}

func (in *Instrument) bump() {
	in.local++
	if in.local >= instrumentFlushEvery {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
}

// Close flushes the buffered row count and closes the child. Profiles
// are read after the query finishes (every operator closed), so the
// flush here makes the counters exact.
func (in *Instrument) Close() error {
	if in.local > 0 {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
	return in.Child.Close()
}

// PruneColumns forwards pruning to the child when it supports it (the
// joins do).
func (in *Instrument) PruneColumns(needed []bool) {
	if cp, ok := in.Child.(ColumnPruner); ok {
		cp.PruneColumns(needed)
	}
}

// VecInstrument is the batch-path profile wrapper. It implements
// BatchOperator so batch pipelines stay batch pipelines when
// instrumented, and forwards PruneColumns so column pruning below
// aggregates keeps working through the wrapper.
type VecInstrument struct {
	Child BatchOperator
	Prof  *obs.OpProfile

	childCtx Context
	local    int64
}

// Open opens the child under a Context that attributes to Prof.
func (in *VecInstrument) Open(ctx *Context) error {
	in.local = 0
	in.childCtx = *ctx
	in.childCtx.Prof = in.Prof
	if in.Prof != nil && in.Prof.Timed {
		t0 := time.Now()
		err := in.Child.Open(&in.childCtx)
		in.Prof.WallNS.Add(int64(time.Since(t0)))
		return err
	}
	return in.Child.Open(&in.childCtx)
}

// NextBatch forwards to the child, counting batches and their selected
// rows.
func (in *VecInstrument) NextBatch() (*vec.Batch, error) {
	if in.Prof != nil && in.Prof.Timed {
		t0 := time.Now()
		b, err := in.Child.NextBatch()
		in.Prof.WallNS.Add(int64(time.Since(t0)))
		in.bumpBatch(b)
		return b, err
	}
	b, err := in.Child.NextBatch()
	in.bumpBatch(b)
	return b, err
}

func (in *VecInstrument) bumpBatch(b *vec.Batch) {
	if b == nil {
		return
	}
	in.Prof.AddBatches(1)
	in.local += int64(b.Len())
	if in.local >= instrumentFlushEvery {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
}

// Next forwards row-at-a-time pulls (consumers above the shim), still
// counting rows.
func (in *VecInstrument) Next() (sqltypes.Row, bool, error) {
	if in.Prof != nil && in.Prof.Timed {
		t0 := time.Now()
		row, ok, err := in.Child.Next()
		in.Prof.WallNS.Add(int64(time.Since(t0)))
		if ok {
			in.bumpRow()
		}
		return row, ok, err
	}
	row, ok, err := in.Child.Next()
	if ok {
		in.bumpRow()
	}
	return row, ok, err
}

func (in *VecInstrument) bumpRow() {
	in.local++
	if in.local >= instrumentFlushEvery {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
}

// Close flushes the buffered row count and closes the child.
func (in *VecInstrument) Close() error {
	if in.local > 0 {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
	return in.Child.Close()
}

// PruneColumns forwards pruning to the child when it supports it.
func (in *VecInstrument) PruneColumns(needed []bool) {
	if cp, ok := in.Child.(ColumnPruner); ok {
		cp.PruneColumns(needed)
	}
}
