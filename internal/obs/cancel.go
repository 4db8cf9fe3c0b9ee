package obs

import (
	"context"
	"sync/atomic"
)

// CancelCheck is a cooperative cancellation checkpoint for solver hot
// loops. A solver holds at most one (attached like a SolveTrace, via
// SetCancel) and calls Checkpoint inside its long-running loops; when
// the underlying context dies, the next strided check trips and the
// loop unwinds, so a per-request timeout or a disconnected client
// actually stops the work instead of letting it run to completion.
//
// The disabled path is free by construction: a nil *CancelCheck no-ops
// every method (one pointer compare), and NewCancelCheck returns nil
// for contexts that can never be cancelled, so solvers driven without a
// deadline — benchmarks, batch tools — keep their measured hot-loop
// cost to the pointer compare the trace hooks already established.
//
// Checkpoint unwinds by panicking with a private sentinel rather than
// threading an error return through every hot-loop signature (the
// probe merge and backward-growth paths are the allocation-floor-guarded
// hot code). The panic is recovered and
// converted to the context's error at the owning solver's public
// boundary (spider.Solver, core.Incremental, tree.Solver all do this);
// Canceled is the extractor those boundaries — and the service's
// panic-quarantine recover, which must NOT quarantine a cancelled
// entry — share. Attach a CancelCheck only under such a boundary.
//
// A CancelCheck is safe for concurrent use: the spider solver's
// parallel growth workers share the one attached to their plans.
type CancelCheck struct {
	done    <-chan struct{}
	ctx     context.Context
	hits    *Counter
	calls   atomic.Uint32
	tripped atomic.Bool
}

// cancelStride is how many Checkpoint calls pass between context polls.
// Hot-loop iterations are microseconds at most, so the stride bounds
// detection latency well below any meaningful request timeout while
// keeping the per-iteration cost to one atomic add.
const cancelStride = 64

// NewCancelCheck returns a checkpoint observing ctx, or nil — the
// universal no-op — when ctx can never be cancelled. hits, when
// non-nil, is incremented once when the checkpoint first observes the
// dead context: the counter is the test- and metrics-visible proof
// that a cancelled solve stopped at a checkpoint rather than running
// to completion.
func NewCancelCheck(ctx context.Context, hits *Counter) *CancelCheck {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &CancelCheck{done: ctx.Done(), ctx: ctx, hits: hits}
}

// Err polls the context immediately (no stride) and returns its error
// if it is dead, nil otherwise. Solvers use it at coarse boundaries —
// once per deadline probe — where a plain error return is available.
func (c *CancelCheck) Err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		if c.tripped.CompareAndSwap(false, true) && c.hits != nil {
			c.hits.Inc()
		}
		return c.ctx.Err()
	default:
		return nil
	}
}

// Checkpoint is the strided hot-loop check: every cancelStride-th call
// it polls the context and, if it is dead, unwinds by panicking with
// the cancellation sentinel. Callers must sit under a boundary that
// recovers via Canceled.
func (c *CancelCheck) Checkpoint() {
	if c == nil {
		return
	}
	if c.calls.Add(1)%cancelStride != 0 {
		return
	}
	if err := c.Err(); err != nil {
		panic(cancelPanic{err: err})
	}
}

// cancelPanic is the sentinel Checkpoint unwinds with.
type cancelPanic struct{ err error }

// Canceled reports whether a recovered panic value is a cancellation
// checkpoint unwind, returning the context error it carries. Recovery
// boundaries re-panic anything else.
func Canceled(r any) (error, bool) {
	if cp, ok := r.(cancelPanic); ok {
		return cp.err, true
	}
	return nil, false
}
