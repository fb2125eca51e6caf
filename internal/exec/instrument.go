package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/vec"
)

// instrumentFlushEvery bounds how many produced rows an Instrument
// buffers locally before flushing to the shared atomic counter. One
// wrapper is always driven by a single goroutine, so the local counter
// needs no synchronization; flushing in chunks keeps the always-on
// cost of row counting to roughly one atomic add per thousand rows.
const instrumentFlushEvery = 1024

// InstrumentOp wraps op so its output batches and their selected rows
// count into prof, and so everything below it writes its events to prof
// through the Context's Sink. Wrapping is idempotent per profile: an
// op already instrumented for prof is returned unchanged (partition chains
// are wrapped inside the planner's parts closures, and the plan-level
// walk must not wrap them again).
func InstrumentOp(op Operator, prof *obs.OpProfile) Operator {
	if w, ok := op.(*Instrument); ok && w.Prof == prof {
		return op
	}
	return &Instrument{Child: op, Prof: prof}
}

// Instrument is the profile wrapper: it counts the batches and selected
// rows out of Child into Prof and, when Prof.Timed is set (EXPLAIN
// ANALYZE), accumulates the wall time spent inside Open, NextBatch and
// Close — two clock reads a batch. The time is cumulative over the whole
// child subtree; the renderer subtracts child profiles to get self time.
type Instrument struct {
	Child Operator
	Prof  *obs.OpProfile

	// childCtx is the Context handed to Child: a copy of the parent's
	// with Prof swapped into its Sink. It must outlive Open — children
	// retain the pointer — so it lives on the wrapper, not on Open's stack.
	childCtx Context
	local    int64
}

// start reads the clock under EXPLAIN ANALYZE; stop adds the wall time
// since to the profile.
func (in *Instrument) start() (t0 time.Time) {
	if in.Prof != nil && in.Prof.Timed {
		t0 = time.Now()
	}
	return t0
}

func (in *Instrument) stop(t0 time.Time) {
	if !t0.IsZero() {
		in.Prof.WallNS.Add(int64(time.Since(t0)))
	}
}

// Open opens the child under a Context that attributes to Prof.
func (in *Instrument) Open(ctx *Context) error {
	in.local = 0
	in.childCtx = *ctx
	in.childCtx.Sink.Prof = in.Prof
	defer in.stop(in.start())
	return in.Child.Open(&in.childCtx)
}

// NextBatch forwards to the child, counting batches and their selected
// rows.
func (in *Instrument) NextBatch() (*vec.Batch, error) {
	t0 := in.start()
	b, err := in.Child.NextBatch()
	in.stop(t0)
	if b != nil {
		in.Prof.AddBatches(1)
		in.local += int64(b.Len())
		if in.local >= instrumentFlushEvery {
			in.Prof.AddRows(in.local)
			in.local = 0
		}
	}
	return b, err
}

// PruneColumns passes the call down.
func (in *Instrument) PruneColumns(needed []bool) { in.Child.PruneColumns(needed) }

// Close flushes the buffered row count and closes the child, timed like
// the rest: an exchange draining its producers or a sort releasing its run
// files is this operator's time. Profiles are read after the query finishes
// (every operator closed), so the flush here makes the counters exact.
func (in *Instrument) Close() error {
	if in.local > 0 {
		in.Prof.AddRows(in.local)
		in.local = 0
	}
	defer in.stop(in.start())
	return in.Child.Close()
}
