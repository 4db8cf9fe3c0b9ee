package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Incremental is a memoized chain plan: the backward construction of §3
// anchored at horizon 0 and grown lazily, one placement at a time. It
// is the package's one construction; Schedule and ScheduleWithin are a
// fresh plan's answers.
//
// The construction is prefix-stable: the first k placements do not
// depend on how many more will follow, so a plan grown from k to k+1
// tasks reuses all the work done for k. It is also unchanged by a
// horizon shift — every quantity the placement rule inspects is either
// a difference of times or a comparison that a common shift leaves
// unchanged (VecLess compares coordinates and lengths only) — so the
// placements toward horizon H are exactly the placements toward horizon
// 0 shifted by H. The single cached backward sequence therefore answers
// every (task count, deadline) query:
//
//   - Schedule(n) is the first n backward placements, reversed and
//     shifted so the first emission lands at 0;
//   - ScheduleWithin(n, Tlim) is the longest backward prefix whose
//     shifted emissions stay non-negative, capped at n;
//   - FitWithin(n, Tlim) is just that prefix length, found by binary
//     search over the strictly decreasing cached emissions.
//
// Amortised over a sequence of queries (the spider solver probes many
// deadlines during its binary search), each new task costs O(p²) once
// and every further query costs O(log n) — instead of O(n·p²) per
// probe. Incremental is not safe for concurrent use.
type Incremental struct {
	ch  platform.Chain
	eng *engine
	// backward[i] is the i-th backward placement, times relative to
	// horizon 0 (first emissions are ≤ 0 and strictly decreasing).
	backward []sched.ChainTask

	// trace, when non-nil, receives the plan's phase timings: growth
	// under obs.PhaseConstruct, materialisation under obs.PhaseExtract.
	// Nil (the default) costs one pointer compare per growth call.
	trace *obs.SolveTrace
	// cancel, when non-nil, is checked once per backward placement in
	// Grow — the construction loop that dominates cold solves — so a
	// dead request context stops the growth instead of paying for the
	// whole plan. Nil (the default) costs one pointer compare.
	cancel *obs.CancelCheck
	stats  IncrementalStats
}

// IncrementalStats is the plan's cumulative query telemetry. Placed is
// read from the cache length at snapshot time; the counters accumulate
// per call.
type IncrementalStats struct {
	// Fits counts FitWithin evaluations — the chain engine's analogue
	// of a deadline probe (ScheduleWithin routes through it too).
	Fits int64
	// Solves counts schedule materialisations (Schedule and
	// ScheduleWithin calls).
	Solves int64
	// Placed is the number of backward placements constructed so far —
	// the plan's paid construction work.
	Placed int64
}

// SetTrace attaches (or, with nil, detaches) the phase trace growth and
// materialisation report into. Safe to call between queries only.
func (inc *Incremental) SetTrace(t *obs.SolveTrace) { inc.trace = t }

// SetCancel attaches (or, with nil, detaches) the cancellation
// checkpoint the growth loop polls. Safe to call between queries only.
// With a checkpoint attached, FitWithin and the accessors that grow the
// cache (Emission, Backward, Grow) unwind a dead context by panicking
// with the obs cancellation sentinel; Schedule and ScheduleWithin
// recover it into an ordinary error, and callers reaching the growing
// paths directly must recover it themselves (spider.Solver does). A
// cancelled growth leaves the cache a valid shorter prefix — the plan
// stays usable.
func (inc *Incremental) SetCancel(c *obs.CancelCheck) { inc.cancel = c }

// Stats snapshots the plan's cumulative query telemetry.
func (inc *Incremental) Stats() IncrementalStats {
	st := inc.stats
	st.Placed = int64(len(inc.backward))
	return st
}

// NewIncremental builds an empty memoized plan for the chain.
func NewIncremental(ch platform.Chain) (*Incremental, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	return &Incremental{ch: ch, eng: newEngine(ch, 0)}, nil
}

// Chain returns the chain the plan schedules on.
func (inc *Incremental) Chain() platform.Chain { return inc.ch }

// Len returns how many backward placements are cached so far.
func (inc *Incremental) Len() int { return len(inc.backward) }

// Grow extends the cache to at least k backward placements. Successive
// first emissions strictly decrease (each new candidate is hulled below
// the previous emission by at least c_1 ≥ 1), which FitWithin's binary
// search relies on.
func (inc *Incremental) Grow(k int) {
	if len(inc.backward) >= k {
		return
	}
	var t0 time.Time
	if inc.trace != nil {
		t0 = time.Now()
	}
	for len(inc.backward) < k {
		inc.cancel.Checkpoint()
		t, _ := inc.eng.placeNext() // validated chains have a processor
		inc.eng.commit(t)
		inc.backward = append(inc.backward, t)
	}
	inc.trace.ObserveSince(obs.PhaseConstruct, t0)
}

// Emission returns the (relative, ≤ 0) first emission of the i-th
// backward placement, growing the cache as needed.
func (inc *Incremental) Emission(i int) platform.Time {
	inc.Grow(i + 1)
	return inc.backward[i].Comms[0]
}

// Backward returns the i-th backward placement (shared storage; callers
// must Clone before mutating), growing the cache as needed.
func (inc *Incremental) Backward(i int) sched.ChainTask {
	inc.Grow(i + 1)
	return inc.backward[i]
}

// FitWithin returns how many of at most n tasks complete within
// [0, deadline]: the longest backward prefix whose emissions, shifted
// by the deadline, stay non-negative. The cache is grown by galloping —
// doubling — until it either holds n placements or provably covers the
// deadline, then binary search over the strictly decreasing emissions
// finds the cut.
func (inc *Incremental) FitWithin(n int, deadline platform.Time) int {
	inc.stats.Fits++
	if n <= 0 || deadline < 0 {
		return 0
	}
	for len(inc.backward) < n && (len(inc.backward) == 0 || inc.backward[len(inc.backward)-1].Comms[0]+deadline >= 0) {
		inc.Grow(min(n, max(4, 2*len(inc.backward))))
	}
	limit := min(len(inc.backward), n)
	k := sort.Search(limit, func(i int) bool {
		return inc.backward[i].Comms[0]+deadline < 0
	})
	return k
}

// ScheduleWithin materialises the schedule behind FitWithin(n, deadline):
// the fitting backward prefix reversed into emission order and shifted
// by the deadline into absolute times.
func (inc *Incremental) ScheduleWithin(n int, deadline platform.Time) (s *sched.ChainSchedule, err error) {
	defer recoverCancel(&err)
	if n < 0 {
		return nil, fmt.Errorf("core: negative task count %d", n)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("core: negative deadline %d", deadline)
	}
	k := inc.FitWithin(n, deadline)
	return inc.materialise(k, deadline), nil
}

// recoverCancel converts a cancellation checkpoint unwind into the
// context error it carries; any other panic continues up.
func recoverCancel(err *error) {
	if r := recover(); r != nil {
		ce, ok := obs.Canceled(r)
		if !ok {
			panic(r)
		}
		*err = ce
	}
}

// Schedule materialises the makespan-optimal schedule of exactly n
// tasks, shifted to start at time 0.
//
// A cancelled growth does not leave empty-handed: the placements built
// before the context died are a valid optimal prefix, and the optimal
// makespan is non-decreasing in the task count, so the prefix's own
// makespan is a proven lower bound on the answer. The cancellation
// error is wrapped in a *PartialError carrying it (Feasible false — no
// n-task schedule exists yet, so there is no upper bound to report).
func (inc *Incremental) Schedule(n int) (s *sched.ChainSchedule, err error) {
	defer inc.partialBoundary(&err)
	defer recoverCancel(&err)
	if n < 0 {
		return nil, fmt.Errorf("core: negative task count %d", n)
	}
	inc.Grow(n)
	var shift platform.Time
	if n > 0 {
		shift = -inc.backward[n-1].Comms[0]
	}
	return inc.materialise(n, shift), nil
}

// partialBoundary wraps a cancellation error with the best-so-far lower
// bound: the makespan of the optimal prefix already constructed. It
// must run after recoverCancel (register it first) so the unwind has
// been converted to an error; anything that is not a cancellation — or
// an empty cache with nothing to report — passes through untouched.
func (inc *Incremental) partialBoundary(err *error) {
	if *err == nil ||
		!(errors.Is(*err, context.Canceled) || errors.Is(*err, context.DeadlineExceeded)) {
		return
	}
	k := len(inc.backward)
	if k == 0 {
		return
	}
	// The k-prefix is exactly Schedule(k): its makespan is the
	// latest completion minus the earliest emission (backward placements
	// strictly decrease in first emission, so entry k−1 starts it).
	var maxEnd platform.Time
	for i := 0; i < k; i++ {
		if end := inc.backward[i].End(inc.ch); i == 0 || end > maxEnd {
			maxEnd = end
		}
	}
	*err = &PartialError{
		Partial: Partial{Lo: maxEnd - inc.backward[k-1].Comms[0]},
		Err:     *err,
	}
}

// materialise reverses the first k backward placements into emission
// order, shifted by delta.
func (inc *Incremental) materialise(k int, delta platform.Time) *sched.ChainSchedule {
	inc.stats.Solves++
	var t0 time.Time
	if inc.trace != nil {
		t0 = time.Now()
	}
	s := &sched.ChainSchedule{Chain: inc.ch, Tasks: make([]sched.ChainTask, k)}
	for i := 0; i < k; i++ {
		s.Tasks[k-1-i] = inc.backward[i].Shifted(delta)
	}
	inc.trace.ObserveSince(obs.PhaseExtract, t0)
	return s
}
