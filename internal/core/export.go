package core

import (
	"fmt"

	"repro/internal/sched"
)

// This file is the spill/rehydrate seam of the incremental plan: a
// constructed backward sequence can leave the process (ExportBackward →
// plancache) and re-enter a fresh plan (ImportBackward) without paying
// the O(n·p²) construction again.
//
// Soundness rests on two properties of the §3 construction already
// relied on elsewhere (see Incremental): it is deterministic —
// placeNext is a pure function of the engine state — and commit is a
// pure O(p) state update fully determined by the committed task. So
// replaying an exported sequence through commit reproduces the exact
// engine state the original construction left behind, and any later
// Grow continues bit-identically to a plan that never spilled.

// ExportBackward returns the cached backward placements, horizon-0
// anchored, in construction order. The slice and its tasks share the
// plan's storage: callers must treat them as read-only (Clone before
// mutating), and must not call growing methods while still reading.
func (inc *Incremental) ExportBackward() []sched.ChainTask {
	return inc.backward
}

// ImportBackward seeds an empty plan with placements previously produced
// by the same chain's construction (ExportBackward, possibly round-
// tripped through the spill format). The plan takes ownership of the
// tasks and their Comms storage.
//
// Every placement is validated in O(p) before it is committed: the
// candidate communication vector targeting the task's own processor is
// recomputed from the replayed engine state — the same hull cascade
// placeNext runs for that one processor — and the task must match it
// exactly, Start included. A sequence that was spliced, truncated
// elsewhere, reordered, or built for a different chain desynchronises
// from the cascade at the first bad placement and is rejected with its
// position. What the check does not re-establish is the Definition 3
// argmax over all p processors — that would cost the full O(p²)
// construction the import exists to avoid — so optimality of the
// imported plan rests on the sequence's provenance (the spill format's
// checksums and LegKey binding).
//
// Import is all-or-nothing: on error the plan is left untouched (still
// empty, still usable for fresh growth).
func (inc *Incremental) ImportBackward(tasks []sched.ChainTask) error {
	if len(inc.backward) != 0 {
		return fmt.Errorf("core: import into a non-empty plan (%d placements cached)", len(inc.backward))
	}
	if len(tasks) == 0 {
		return nil
	}
	// Replay into a fresh engine so a mid-sequence rejection cannot leave
	// the plan's own engine half-committed.
	e := newEngine(inc.ch, 0)
	p := inc.ch.Len()
	for i, t := range tasks {
		if t.Proc < 1 || t.Proc > p {
			return fmt.Errorf("core: import: placement %d: processor %d out of range [1, %d]", i, t.Proc, p)
		}
		if len(t.Comms) != t.Proc {
			return fmt.Errorf("core: import: placement %d: %d communication times for processor %d", i, len(t.Comms), t.Proc)
		}
		if want := e.o[t.Proc] - e.w[t.Proc]; t.Start != want {
			return fmt.Errorf("core: import: placement %d: start %d does not match the replayed occupancy (want %d)", i, t.Start, want)
		}
		// Recompute the hull cascade targeting t.Proc — the exact
		// candidate placeNext would build for this processor.
		v := min(e.o[t.Proc]-e.w[t.Proc], e.h[t.Proc]) - e.c[t.Proc]
		if t.Comms[t.Proc-1] != v {
			return fmt.Errorf("core: import: placement %d: communication %d is %d, cascade gives %d", i, t.Proc, t.Comms[t.Proc-1], v)
		}
		for j := t.Proc - 1; j >= 1; j-- {
			if hj := e.h[j]; hj < v {
				v = hj
			}
			v -= e.c[j]
			if t.Comms[j-1] != v {
				return fmt.Errorf("core: import: placement %d: communication %d is %d, cascade gives %d", i, j, t.Comms[j-1], v)
			}
		}
		e.commit(t)
	}
	inc.eng = e
	inc.backward = tasks
	return nil
}
