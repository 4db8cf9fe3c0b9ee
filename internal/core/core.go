// Package core implements the paper's primary contribution: the optimal
// backward greedy algorithm for scheduling n identical independent tasks
// on a chain of heterogeneous processors (Dutot, IPPS 2003, §3, Fig. 3),
// and its time-limited variant used by the spider algorithm (§7).
//
// # The backward construction
//
// The algorithm schedules tasks from the last one to the first one,
// anchored at a horizon (the paper takes T∞ = c_1 + (n−1)·max(w_1, c_1)
// + w_1, the makespan of the trivial all-on-processor-1 schedule; any
// horizon gives the same schedule up to a shift). Two vectors of state
// are maintained:
//
//   - the hull h_k: the earliest time from which link k may no longer be
//     used (everything at or after h_k on link k is already committed to
//     later tasks);
//   - the occupancy o_k: the time from which processor k is committed.
//
// For each task (taken backward) and every target processor k, the
// candidate communication vector places the task as late as possible:
//
//	kC_k = min(o_k − w_k, h_k) − c_k
//	kC_j = min(kC_{j+1}, h_j) − c_j      for j = k−1 … 1
//
// The greatest candidate under the Definition 3 order (package sched) is
// kept: it maximises the first emission time and, on exact prefix ties,
// prefers the shallower processor. The task executes back-to-back with
// the processor's occupancy, T = o_P − w_P, and the state is updated
// (o_P = T, h_j = C_j for j ≤ P). A final shift of −C_1^1 sets the
// schedule start to time 0. Theorem 1 proves the resulting makespan
// optimal; the complexity is O(n·p²).
//
// # The deadline variant
//
// ScheduleWithin anchors the construction at a deadline Tlim and keeps
// scheduling backward until either n tasks are placed or the next task's
// first emission would be negative. The result maximises the number of
// tasks completed by Tlim (used per-leg by the spider algorithm of §7,
// and — by binary search on Tlim — an alternative route to the optimal
// makespan).
//
// # One construction
//
// Both variants run one memoized plan, Incremental, anchored at horizon
// 0 (its doc says why that one plan answers every task count and
// deadline); Schedule and ScheduleWithin are a fresh plan's answers.
// Its flat kernel (placeNext) allocates only the committed
// communication vector per task. The traced kernel that materialises
// every candidate vector, for the Lemma 1/Lemma 2 structural checks,
// lives in the package's tests, with the construction from scratch
// toward the query's own horizon that the plan is held against.
package core

import (
	"repro/internal/platform"
	"repro/internal/sched"
)

// Schedule returns a makespan-optimal schedule of n tasks on the chain
// (Theorem 1), normalised to start at time 0.
func Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	inc, err := NewIncremental(ch)
	if err != nil {
		return nil, err
	}
	return inc.Schedule(n)
}

// ScheduleWithin returns a schedule of as many tasks as possible — at
// most n — completing within [0, Tlim]. Times are absolute: the last
// task finishes at Tlim exactly when the deadline is tight. The schedule
// is NOT re-shifted, so the spider algorithm can splice legs together.
func ScheduleWithin(ch platform.Chain, n int, tlim platform.Time) (*sched.ChainSchedule, error) {
	inc, err := NewIncremental(ch)
	if err != nil {
		return nil, err
	}
	return inc.ScheduleWithin(n, tlim)
}

// engine holds the backward construction state. The chain parameters
// and the per-placement scratch live in flat slices indexed by the
// 1-based processor number (index 0 unused in h/o/c/w), so the O(p²)
// hull-update kernel of placeNext runs over contiguous int64 arrays —
// no Node field chasing, no per-candidate allocation — the shape the
// compiler's bounds-check elimination and the cache like.
type engine struct {
	ch platform.Chain
	h  []platform.Time // h[k] = hull of link k, 1-based
	o  []platform.Time // o[k] = occupancy of processor k, 1-based
	c  []platform.Time // c[k] = link latency, 1-based copy of the chain
	w  []platform.Time // w[k] = processing time, 1-based copy

	// placeNext scratch: the best candidate vector so far and the one
	// being cascaded, swapped by header so neither is ever copied.
	bestBuf []platform.Time
	curBuf  []platform.Time
}

func newEngine(ch platform.Chain, horizon platform.Time) *engine {
	p := ch.Len()
	e := &engine{
		ch:      ch,
		h:       make([]platform.Time, p+1),
		o:       make([]platform.Time, p+1),
		c:       make([]platform.Time, p+1),
		w:       make([]platform.Time, p+1),
		bestBuf: make([]platform.Time, p),
		curBuf:  make([]platform.Time, p),
	}
	for k := 1; k <= p; k++ {
		e.h[k] = horizon
		e.o[k] = horizon
		e.c[k] = ch.Comm(k)
		e.w[k] = ch.Work(k)
	}
	return e
}

// placeNext computes the chosen assignment for the next (backward) task
// without mutating the engine state; commit applies it. All times are
// absolute. Candidate vectors are cascaded into reusable flat buffers
// and compared incrementally under the Definition 3 order, so the only
// allocation is the returned task's own communication vector. ok is
// false when the chain has no processors to place on.
func (e *engine) placeNext() (task sched.ChainTask, ok bool) {
	p := len(e.c) - 1
	if p == 0 {
		return sched.ChainTask{}, false
	}
	h, o, c, w := e.h, e.o, e.c, e.w
	best, cur := e.bestBuf, e.curBuf
	bestLen, bestProc := 0, 0
	for k := 1; k <= p; k++ {
		// Candidate targeting processor k: place as late as possible,
		// then cascade the emission down through the hulls.
		v := min(o[k]-w[k], h[k]) - c[k]
		cur[k-1] = v
		for j := k - 1; j >= 1; j-- {
			if hj := h[j]; hj < v {
				v = hj
			}
			v -= c[j]
			cur[j-1] = v
		}
		// Keep the greatest candidate (VecMaxIndex semantics: only a
		// strictly greater vector replaces, so exact ties keep the
		// shallower processor seen first).
		if bestProc == 0 || flatVecLess(best[:bestLen], cur[:k]) {
			best, cur = cur, best
			bestLen, bestProc = k, k
		}
	}
	e.bestBuf, e.curBuf = best, cur
	return sched.ChainTask{
		Proc:  bestProc,
		Start: o[bestProc] - w[bestProc],
		Comms: append([]platform.Time(nil), best[:bestLen]...),
	}, true
}

// flatVecLess is sched.VecLess over the scratch buffers: a ≺ b iff the
// first differing coordinate is smaller, or the vectors share a prefix
// and a is the longer one (the shallower processor wins exact ties).
func flatVecLess(a, b []platform.Time) bool {
	n := min(len(a), len(b))
	for l := 0; l < n; l++ {
		if a[l] != b[l] {
			return a[l] < b[l]
		}
	}
	return len(a) > len(b)
}

// commit applies a placement returned by placeNext: the processor's
// occupancy moves to the task's start and every link up to the processor
// is hulled at the task's emission.
func (e *engine) commit(t sched.ChainTask) {
	e.o[t.Proc] = t.Start
	h := e.h
	for k := 1; k <= t.Proc; k++ {
		h[k] = t.Comms[k-1]
	}
}
