// Package spider implements the optimal spider-graph algorithm of §7 of
// the paper, combining the backward chain algorithm (package core) with
// the fork-graph machinery of [2] (package fork):
//
//  1. For every leg, the time-limited chain algorithm schedules as many
//     tasks as fit within the deadline, anchored at the deadline.
//  2. Each scheduled leg task i becomes a single-task virtual slave
//     (c_first, Tlim − C_1^i − c_first): the leg promises to complete
//     the task by Tlim provided the master starts its send by C_1^i
//     (the Fig. 7 transformation).
//  3. The fork packing admits a maximum subset of virtual slaves whose
//     back-to-back sends meet every promise (Lemma 4 shows any spider
//     schedule induces such a packing, so this is an upper bound).
//  4. The admitted virtual slaves are reverted into an actual spider
//     schedule: every chosen leg task keeps its in-leg trajectory and
//     only its first send is moved earlier, to the packed slot, which
//     preserves feasibility (Lemma 3).
//
// Theorem 3: the result completes the maximum possible number of tasks
// within the deadline; binary search over the deadline then yields the
// minimum makespan for n tasks.
//
// # The memoized solver
//
// A naive implementation (the test-only reference in reference_test.go)
// rebuilds every leg plan at every deadline probe, for O(n·p²) per leg
// per probe — O(n²·p²) overall (Theorem 2). The Solver in this file
// exploits two structural facts of the backward construction (see
// core.Incremental):
//
//   - translation invariance: the leg plan toward deadline T is the
//     horizon-0 plan shifted by T, so one cached backward sequence per
//     leg answers every deadline;
//   - prefix stability with strictly decreasing emissions: the tasks
//     fitting within T are exactly the backward prefix whose shifted
//     emissions stay non-negative, found by galloping/binary search.
//
// Each deadline probe then costs one fork packing over cached
// emissions, instead of rebuilding the chain schedules; the per-leg
// construction itself is paid once, amortised over all probes, and
// independent legs are grown in parallel worker goroutines with a
// deterministic merge (each leg owns its slot; results are read in leg
// order). The solver produces schedules identical to the reference
// path — not merely equal makespans — because the virtual-slave
// multiset it feeds the deterministic packing is the same.
//
// # The probe
//
// Every leg contributes a run of virtual slaves with one Comm (its
// c_1) and strictly increasing Proc, and the fork greedy scans all runs
// in ascending (Comm, Proc, leg) order. The packer's ceiling lemma
// (fork.Packer) says that once the greedy rejects some Proc, it rejects
// every later candidate at or above it. So the probe merges the runs
// lazily and retires a leg at its first rejection, or as soon as its
// next candidate reaches the ceiling: a probe offers at most n + legs
// candidates, however long the runs are. The merge walks the legs in a
// deadline-independent order (by c_1, then by the Proc of the leg's
// first candidate), so a leg enters the merge only once its first
// candidate is due, and the probe ends once the ceiling sits at or
// below every remaining leg's first candidate.
package spider

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fork"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

// legPlan memoizes one leg's backward construction. Virtual-slave
// processing times are deadline-independent: the §7 promise for the
// task at backward index j is Proc = Tlim − C_1 − c_1 where C_1 =
// emission(j) + Tlim, so Proc = −emission(j) − c_1 for any deadline.
type legPlan struct {
	inc  *core.Incremental
	c1   platform.Time
	mult int // legs sharing this plan
}

// fit returns how many of at most n tasks this leg completes within the
// deadline, growing the memoized plan as needed.
func (lp *legPlan) fit(n int, deadline platform.Time) int {
	return lp.inc.FitWithin(n, deadline)
}

// proc returns the §7 promise of the task at backward index j: the
// virtual slave's deadline-independent processing time.
func (lp *legPlan) proc(j int) platform.Time {
	return -lp.inc.Emission(j) - lp.c1
}

// Solver answers repeated scheduling queries on one spider, reusing the
// memoized per-leg plans across calls: probing many deadlines (as
// MinMakespan's binary search does) or many task counts (as the tree
// covering heuristic may) pays the backward construction only once.
// A Solver is not safe for concurrent use; independent Solvers are.
type Solver struct {
	sp platform.Spider
	// legs[b] is leg b's plan view. Isomorphic legs — identical (c, w)
	// sequences under platform.LegKey — share one *legPlan: the backward
	// construction is paid once per distinct leg shape, not once per
	// leg. Sharing is sound because a plan is a pure function of its
	// chain (every consumer carries the leg index separately) and growth
	// is deterministic.
	legs []*legPlan
	// plans holds each distinct plan exactly once. The parallel prepare
	// workers iterate plans, not legs, so no two goroutines ever grow
	// the same shared plan.
	plans []*legPlan

	// order lists every leg by (c_1, Proc of its first candidate, leg)
	// and groups splits it into runs of equal c_1; both are
	// deadline-independent and built once, by buildOrder, on the first
	// probe. heap is the per-group merge scratch and packer the pooled
	// ceiling packer, Reset per probe.
	order  []mergeHead
	groups []commGroup
	heap   []mergeHead
	packer *fork.Packer

	// rate and solo are the spider's steady-state throughput and best
	// single-task completion, computed once by lowerBound (rateErr
	// caches a failure).
	rate    *big.Rat
	solo    platform.Time
	rateErr error

	stats ProbeStats

	// trace, when non-nil, receives per-phase wall times: plan growth
	// under obs.PhaseConstruct (via the plans' core.Incremental hooks),
	// plan set-up and the steady-state seed under obs.PhaseDedup,
	// fit-count sums under obs.PhaseMerge, the probe body under
	// obs.PhasePack and the Lemma 3 revert under obs.PhaseExtract.
	// Nil (the default) keeps the hot path at one pointer compare per
	// phase boundary — the disabled-hooks test asserts the warm probe's
	// allocation count is unchanged.
	trace *obs.SolveTrace
	// cancel, when non-nil, is the cooperative cancellation checkpoint
	// the solve loops poll: once per deadline probe (fits), at stride
	// inside the merge, and — via propagation to the distinct leg plans
	// — inside the backward growth. Nil (the default) keeps every hot
	// loop at one pointer compare, the same floor as the trace hooks.
	cancel *obs.CancelCheck

	// buildNs is buildPlans' wall time (leg-key dedup + plan set-up),
	// measured unconditionally because it happens before a trace can be
	// attached; SetTrace flushes it once per build.
	buildNs      time.Duration
	buildFlushed bool

	// prepared high-water marks: fit(n, deadline) needs no growth when
	// both are dominated, so warm probes skip the worker pool entirely.
	prepN        int
	prepDeadline platform.Time

	// testProbeHook, when non-nil, runs at the top of every feasibility
	// probe (fits). It is a test seam: cancelling the observed context
	// from the hook stops the search at a chosen probe, so the
	// best-so-far bracket a cancellation carries out can be asserted
	// deterministically. Set it between queries only.
	testProbeHook func()
}

// ProbeStats is the solver's cumulative deadline-search telemetry; the
// E5p experiment, the offer-count gate and the msbench -json
// probes-per-solve column read it.
type ProbeStats struct {
	// Solves counts MinMakespan searches.
	Solves int
	// Probes counts feasibility probes (fits evaluations).
	Probes int
	// PackProbes counts probes that ran packing work: every feasibility
	// probe, plus the MaxTasks and ScheduleWithin calls.
	PackProbes int
	// CountChecks counts pure fit-count evaluations: the seeding's
	// sum-of-fits bound search.
	CountChecks int
	// Offered counts candidates offered to the packer: at most n + legs
	// per probe.
	Offered int64
	// Constructed counts the backward placements built across the
	// solver's distinct leg plans — the paid construction work, read at
	// snapshot time. Chain solvers report their single plan's length
	// here, so admission control can predict solve cost uniformly.
	Constructed int64
}

// Stats returns the cumulative probe telemetry.
func (s *Solver) Stats() ProbeStats {
	st := s.stats
	for _, lp := range s.plans {
		st.Constructed += int64(lp.inc.Len())
	}
	return st
}

// SetTrace attaches (or, with nil, detaches) the phase trace the
// solver's hooks report into, propagating it to every distinct leg
// plan; the set-up cost already paid by buildPlans flushes into the
// trace once. Attach between queries only — the trace itself is safe
// for the solver's parallel growth workers, swapping it mid-solve is
// not.
func (s *Solver) SetTrace(t *obs.SolveTrace) {
	s.trace = t
	for _, lp := range s.plans {
		lp.inc.SetTrace(t)
	}
	if t != nil && !s.buildFlushed {
		s.buildFlushed = true
		t.Observe(obs.PhaseDedup, s.buildNs)
	}
}

// SetCancel attaches (or, with nil, detaches) the cancellation
// checkpoint the solve loops poll, propagating it to every distinct
// leg plan. With a checkpoint attached, a dead context unwinds the
// solve: MinMakespan, MaxTasks and ScheduleWithin return the context's
// error, and the prepared-growth marks are abandoned (the leg plans
// keep their — still valid — partial growth, so the next solve
// re-probes warm). Attach between queries only; the checkpoint itself
// is safe for the parallel growth workers.
func (s *Solver) SetCancel(c *obs.CancelCheck) {
	s.cancel = c
	for _, lp := range s.plans {
		lp.inc.SetCancel(c)
	}
}

// solveBoundary is the deferred recovery point of the public solve
// methods: it converts a cancellation checkpoint unwind into the
// context error it carries (re-panicking anything else) and, whenever
// a solve ends in an error with a dead context, drops the growth marks,
// which may promise growth that never ran. Probe state needs no reset:
// every probe starts from a Reset packer.
func (s *Solver) solveBoundary(err *error) {
	if r := recover(); r != nil {
		ce, ok := obs.Canceled(r)
		if !ok {
			panic(r)
		}
		*err = ce
	}
	if *err != nil && s.cancel.Err() != nil {
		s.prepN, s.prepDeadline = 0, 0
	}
}

// NewSolver validates the spider and prepares empty per-leg plans,
// deduplicating isomorphic legs (see Solver.legs).
func NewSolver(sp platform.Spider) (*Solver, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{sp: sp}
	if err := s.buildPlans(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildPlans builds the per-leg plan views, sharing one plan among
// isomorphic legs, and the distinct-plan set.
func (s *Solver) buildPlans() error {
	t0 := time.Now()
	s.legs = make([]*legPlan, s.sp.NumLegs())
	shared := make(map[string]*legPlan, len(s.legs))
	for b, leg := range s.sp.Legs {
		key := platform.LegKey(leg)
		if lp := shared[key]; lp != nil {
			lp.mult++
			s.legs[b] = lp
			continue
		}
		inc, err := core.NewIncremental(leg)
		if err != nil {
			return fmt.Errorf("spider: leg %d: %w", b, err)
		}
		lp := &legPlan{inc: inc, c1: leg.Comm(1), mult: 1}
		s.legs[b] = lp
		s.plans = append(s.plans, lp)
		shared[key] = lp
	}
	// Timed unconditionally (two clock reads on a cold path): a trace
	// attached after construction still gets the set-up cost, flushed by
	// SetTrace exactly once.
	s.buildNs = time.Since(t0)
	return nil
}

// DistinctLegPlans returns how many backward constructions the solver
// actually owns: the number of distinct leg shapes.
func (s *Solver) DistinctLegPlans() int { return len(s.plans) }

// Spider returns the platform the solver schedules on.
func (s *Solver) Spider() platform.Spider { return s.sp }

// prepare grows every distinct leg plan far enough to answer
// fit(n, deadline), evaluating independent plans in parallel worker
// goroutines. Each goroutine mutates only plans it exclusively drew, so
// the merge is deterministic by construction: subsequent reads walk the
// legs in index order over fully grown, immutable-from-here plans.
func (s *Solver) prepare(n int, deadline platform.Time) error {
	if n <= s.prepN && deadline <= s.prepDeadline {
		return nil
	}
	// Grow to the recorded envelope, not just this call's pair: the
	// marks promise that any dominated query needs no growth, so the
	// growth itself must cover their component-wise max.
	s.prepN = max(s.prepN, n)
	s.prepDeadline = max(s.prepDeadline, deadline)
	n, deadline = s.prepN, s.prepDeadline
	// Growth walks the distinct plans: a shape shared by m legs is
	// constructed once here and read m times later. Iterating
	// plans (not legs) is also what keeps the pool race-free — each
	// worker owns the plans it draws, and no plan appears twice.
	if len(s.plans) < 2 || n < 2 {
		for _, lp := range s.plans {
			lp.fit(n, deadline) // a cancel unwind is caught at the method boundary
		}
		return nil
	}
	workers := min(len(s.plans), runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan *legPlan, len(s.plans))
	for _, lp := range s.plans {
		next <- lp
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lp := range next {
				// A cancellation unwind must not escape the goroutine
				// (that would kill the process); convert it here and let
				// the remaining workers drain their queues — their own
				// strided checks trip within a stride anyway.
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					continue
				}
				if err := growPlan(lp, n, deadline); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// growPlan grows one plan inside a prepare worker, converting a
// cancellation unwind into an ordinary error.
func growPlan(lp *legPlan, n int, deadline platform.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := obs.Canceled(r)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	lp.fit(n, deadline)
	return nil
}

// mergeHead is one leg's next candidate in the probe merge: its Proc,
// the leg, and its backward index j. Within a leg, ascending j means
// strictly ascending Proc at constant Comm, so each run is already
// sorted under the admission order, and across legs of one Comm the
// order is (Proc, leg).
type mergeHead struct {
	proc platform.Time
	leg  int32
	j    int32
}

func (a mergeHead) less(b mergeHead) bool {
	return a.proc < b.proc || (a.proc == b.proc && a.leg < b.leg)
}

// commGroup is the run order[start:end] of legs sharing one c_1, with
// sufMin the lowest first-candidate Proc over this group and every
// later one.
type commGroup struct {
	comm       platform.Time
	start, end int
	sufMin     platform.Time
}

// buildOrder sorts the legs by (c_1, Proc at backward index 0, leg) and
// splits them into Comm groups. It reads only backward index 0, which
// every plan holds once prepare has run for n ≥ 1.
func (s *Solver) buildOrder() {
	order := make([]mergeHead, len(s.legs))
	for b, lp := range s.legs {
		order[b] = mergeHead{proc: lp.proc(0), leg: int32(b)}
	}
	slices.SortFunc(order, func(a, b mergeHead) int {
		if c := cmp.Compare(s.legs[a.leg].c1, s.legs[b.leg].c1); c != 0 {
			return c
		}
		if a.less(b) {
			return -1
		}
		return 1
	})
	var groups []commGroup
	for i, h := range order {
		if c := s.legs[h.leg].c1; len(groups) == 0 || groups[len(groups)-1].comm != c {
			groups = append(groups, commGroup{comm: c, start: i})
		}
		groups[len(groups)-1].end = i + 1
	}
	suf := platform.Time(math.MaxInt64)
	for g := len(groups) - 1; g >= 0; g-- {
		suf = min(suf, order[groups[g].start].proc)
		groups[g].sufMin = suf
	}
	s.order, s.groups = order, groups
}

// pack runs one deadline probe on the ceiling path: the legs' candidate
// runs merge in admission order into the pooled packer, which stops at
// n admissions. Candidates carry their backward index in Rank. A leg
// leaves the merge at its first rejection or once its next candidate
// reaches the packer's ceiling, and the probe ends once the ceiling sits
// at or below every remaining group's first candidate (see the package
// doc), so it makes at most n + legs offers.
func (s *Solver) pack(n int, deadline platform.Time) (*fork.Packer, error) {
	s.stats.PackProbes++
	if s.packer == nil {
		s.packer = &fork.Packer{}
	}
	p := s.packer
	if err := p.Reset(n, deadline); err != nil {
		return nil, err
	}
	if p.Full() {
		return p, nil
	}
	if s.order == nil {
		s.buildOrder()
	}
	for _, g := range s.groups {
		if p.Full() || min(p.Ceiling()-1, deadline-g.comm) < g.sufMin {
			break
		}
		s.packGroup(p, g, n, deadline)
	}
	return p, nil
}

// packGroup merges one Comm group into the packer. The run of a leg at
// this deadline is its candidates with j < n and Comm + Proc ≤ deadline
// (the leg's fit count), so run ends are tested per candidate and no
// fit count is computed. Legs enter a small heap lazily, in
// first-candidate order, once their first candidate is due.
func (s *Solver) packGroup(p *fork.Packer, g commGroup, n int, deadline platform.Time) {
	h, next := s.heap[:0], g.start
	for !p.Full() {
		// lim is the largest Proc still worth offering: within the
		// leg's run, and below the ceiling.
		lim := min(p.Ceiling()-1, deadline-g.comm)
		for next < g.end && s.order[next].proc <= lim && (len(h) == 0 || s.order[next].less(h[0])) {
			h = append(h, s.order[next])
			siftUp(h, len(h)-1)
			next++
		}
		if len(h) == 0 || h[0].proc > lim {
			break
		}
		s.cancel.Checkpoint()
		s.stats.Offered++
		top := &h[0]
		if p.Offer(platform.VirtualSlave{Comm: g.comm, Proc: top.proc, Leg: int(top.leg), Rank: int(top.j)}) {
			if top.j++; int(top.j) < n {
				// The admitted candidate was within the run, so the plan
				// holds index j: prepare grew it past the run's end.
				top.proc = s.legs[top.leg].proc(int(top.j))
				siftDown(h, 0)
				continue
			}
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
	s.heap = h
}

// siftUp restores the min-heap order above index i.
func siftUp(h []mergeHead, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap order below index i.
func siftDown(h []mergeHead, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && h[l].less(h[least]) {
			least = l
		}
		if r < len(h) && h[r].less(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// countFits returns the sum of the per-leg fit counts for the deadline
// — the length of the probe's candidate stream — evaluating each
// distinct plan once.
func (s *Solver) countFits(n int, deadline platform.Time) int {
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
	}
	total := 0
	for _, lp := range s.plans {
		total += lp.mult * lp.fit(n, deadline)
	}
	s.trace.ObserveSince(obs.PhaseMerge, t0)
	return total
}

// probe runs one deadline probe and returns the number of admitted
// tasks, materialising the allocation only when alloc is set. In the
// allocation, Rank is each admitted candidate's backward index.
func (s *Solver) probe(n int, deadline platform.Time, alloc bool) (int, *fork.Allocation, error) {
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
		defer s.trace.ObserveSince(obs.PhasePack, t0)
	}
	p, err := s.pack(n, deadline)
	if err != nil {
		return 0, nil, err
	}
	if !alloc {
		return p.Len(), nil, nil
	}
	return p.Len(), p.Allocation(), nil
}

// MaxTasks returns how many of at most n tasks complete within the
// deadline.
func (s *Solver) MaxTasks(n int, deadline platform.Time) (k int, err error) {
	defer s.solveBoundary(&err)
	if n < 0 {
		return 0, fmt.Errorf("spider: negative task count %d", n)
	}
	if deadline < 0 {
		return 0, fmt.Errorf("spider: negative deadline %d", deadline)
	}
	if err := s.prepare(n, deadline); err != nil {
		return 0, err
	}
	k, _, err = s.probe(n, deadline, false)
	return k, err
}

// fits reports whether all n tasks complete within the deadline; the
// binary-search probe of MinMakespan. It always packs: the search starts
// at a deadline whose per-leg fit counts already sum to n, and fit
// counts only grow with the deadline.
func (s *Solver) fits(n int, deadline platform.Time) (bool, error) {
	if s.testProbeHook != nil {
		s.testProbeHook()
	}
	// One immediate (unstrided) poll per deadline probe: the coarse
	// checkpoint that bounds how many probes a dead request still pays
	// for, independent of the strided hot-loop checks below it.
	if err := s.cancel.Err(); err != nil {
		return false, err
	}
	s.stats.Probes++
	m, _, err := s.probe(n, deadline, false)
	return m == n, err
}

// ScheduleWithin schedules as many tasks as possible — at most n — on
// the spider completing within [0, deadline] (Theorem 3).
func (s *Solver) ScheduleWithin(n int, deadline platform.Time) (out *sched.SpiderSchedule, err error) {
	defer s.solveBoundary(&err)
	if n < 0 {
		return nil, fmt.Errorf("spider: negative task count %d", n)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("spider: negative deadline %d", deadline)
	}
	if err := s.prepare(n, deadline); err != nil {
		return nil, err
	}
	_, alloc, err := s.probe(n, deadline, true)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
		defer s.trace.ObserveSince(obs.PhaseExtract, t0)
	}
	return s.revert(alloc, deadline)
}

// revert turns a packing at the deadline into a spider schedule (Lemma
// 3): the chosen virtual slave (leg b, backward index j) is leg b's
// backward placement j with its first send moved to the packed slot.
// The packing guarantees EmitStart ≤ the original C_1, so moving the
// send earlier keeps condition (1); port slots are pairwise disjoint by
// construction.
func (s *Solver) revert(alloc *fork.Allocation, deadline platform.Time) (*sched.SpiderSchedule, error) {
	out := &sched.SpiderSchedule{Spider: s.sp}
	for _, c := range alloc.Slaves {
		t := s.legs[c.Leg].inc.Backward(c.Rank).Shifted(deadline)
		if c.EmitStart > t.Comms[0] {
			return nil, fmt.Errorf("spider: internal error: packed send %d after promised latest %d", c.EmitStart, t.Comms[0])
		}
		t.Comms[0] = c.EmitStart
		out.Tasks = append(out.Tasks, sched.SpiderTask{Leg: c.Leg, ChainTask: t})
	}
	return out, nil
}

// lowerBound returns platform.Spider.LowerBound(n) from the spider's
// steady-state rate and best solo completion, computed once per solver:
// the rate is exact rational arithmetic over every leg, too costly to
// redo on every MinMakespan of a warm solver. Like buildPlans, that
// once-per-solver set-up is traced under obs.PhaseDedup.
func (s *Solver) lowerBound(n int) (platform.Time, error) {
	if s.rate == nil && s.rateErr == nil {
		var t0 time.Time
		if s.trace != nil {
			t0 = time.Now()
		}
		s.rate, s.solo, s.rateErr = s.sp.SteadyState()
		s.trace.ObserveSince(obs.PhaseDedup, t0)
	}
	if s.rateErr != nil {
		return 0, s.rateErr
	}
	return platform.SteadyStateBound(n, s.rate, s.solo), nil
}

// MinMakespan returns the optimal makespan for exactly n tasks on the
// spider and a schedule achieving it, by binary search on the deadline
// (the maximum task count within a deadline is non-decreasing in the
// deadline, so feasibility of n tasks is monotone). The leg plans are
// grown once, in parallel, for the upper bound; every probe then costs
// one ceiling-bounded packing.
//
// The search interval is seeded from both sides. Below: the proven
// steady-state lower bound (platform.Spider.LowerBound) is
// tightened to the sum-of-fits bound — the smallest deadline whose
// per-leg fit counts sum to n, a necessary condition for feasibility
// found by binary search over fit counts alone, no packing. Above: the
// search gallops up from that bound with doubling steps until a probe
// succeeds, replacing the master-only upper bound (one leg doing
// everything) with a feasible deadline only a port-contention gap away.
// Every bound is proven, so the converged optimum — and hence the
// schedule — is unchanged, which the equivalence tests assert.
//
// A cancelled search does not leave empty-handed: every probe updates
// the best-so-far bracket, and the cancellation unwind carries it out
// wrapped in a *core.PartialError. Lo is always a proven lower bound
// (the steady-state seed, tightened by sum-of-fits and every failed
// probe); Hi and Feasible are set once a probe actually packs all n
// tasks, so a cancel before the first feasible probe reports the lower
// bound alone — never a fabricated upper bound.
func (s *Solver) MinMakespan(n int) (mk platform.Time, sol *sched.SpiderSchedule, err error) {
	var br core.Partial
	brValid := false
	// Registered before solveBoundary so it runs after the recover: the
	// unwind has already been converted into the context error by then.
	defer func() {
		if err == nil || !brValid {
			return
		}
		var pe *core.PartialError
		if errors.As(err, &pe) {
			return
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = &core.PartialError{Partial: br, Err: err}
		}
	}()
	defer s.solveBoundary(&err)
	if n <= 0 {
		return 0, nil, fmt.Errorf("spider: task count %d is not positive", n)
	}
	s.stats.Solves++
	lo, hi := platform.Time(1), s.sp.MasterOnlyMakespan(n)
	if lb, err := s.lowerBound(n); err == nil && lb > lo && lb <= hi {
		lo = lb
	}
	br.Lo, br.Hi = lo, hi
	brValid = true
	if lo >= hi {
		if err := s.prepare(n, hi); err != nil {
			return 0, nil, err
		}
	} else {
		// Grow the leg plans only as far as the search actually climbs,
		// instead of to the master-only horizon. Every probe below goes
		// through prepare first, so the parallel growth still happens —
		// but it stops a port-contention gap above the optimum, which on
		// wide platforms is a fraction of the master-only cover.
		if err := s.prepare(n, lo); err != nil {
			return 0, nil, err
		}
		// Sum-of-fits tightening: fit counts are monotone in the
		// deadline and fewer than n total fits cannot pack n. Gallop
		// up from the steady-state bound, then bisect the last step —
		// never evaluating (or growing toward) master-only deadlines.
		count := func(d platform.Time) (int, error) {
			if err := s.prepare(n, d); err != nil {
				return 0, err
			}
			s.stats.CountChecks++
			return s.countFits(n, d), nil
		}
		c, err := count(lo)
		if err != nil {
			return 0, nil, err
		}
		if c < n {
			d, step := lo, platform.Time(1)
			sfLo := lo + 1
			br.Lo = sfLo
			for {
				d = min(d+step, hi)
				if step *= 2; step <= 0 {
					step = hi
				}
				if d == hi {
					break
				}
				if c, err = count(d); err != nil {
					return 0, nil, err
				}
				if c >= n {
					break
				}
				sfLo = d + 1
				br.Lo = sfLo
			}
			for sfLo < d {
				mid := sfLo + (d-sfLo)/2
				if c, err = count(mid); err != nil {
					return 0, nil, err
				}
				if c >= n {
					d = mid
				} else {
					sfLo = mid + 1
					br.Lo = sfLo
				}
			}
			lo = d
			br.Lo = lo
		}
		// Gallop: the first feasible probe seeds the upper bound. A
		// success at the sum-of-fits bound itself ends the search
		// outright (a feasible lower bound is the optimum).
		d, step := lo, platform.Time(1)
		for lo < hi {
			if err := s.prepare(n, d); err != nil {
				return 0, nil, err
			}
			ok, err := s.fits(n, d)
			if err != nil {
				return 0, nil, err
			}
			if ok {
				hi = d
				br.Hi, br.Feasible = hi, true
				break
			}
			lo = d + 1
			br.Lo = lo
			if step >= hi-d {
				if err := s.prepare(n, hi); err != nil {
					return 0, nil, err
				}
				break
			}
			d += step
			step *= 2
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := s.fits(n, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi = mid
			br.Hi, br.Feasible = hi, true
		} else {
			lo = mid + 1
			br.Lo = lo
		}
	}
	out, err := s.ScheduleWithin(n, lo)
	if err != nil {
		return 0, nil, err
	}
	if out.Len() != n {
		return 0, nil, fmt.Errorf("spider: internal error: %d tasks at deadline %d, want %d", out.Len(), lo, n)
	}
	return lo, out, nil
}

// MaxTasks returns how many of at most n tasks complete within the
// deadline.
func MaxTasks(sp platform.Spider, n int, deadline platform.Time) (int, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return 0, err
	}
	return s.MaxTasks(n, deadline)
}

// MinMakespan returns the optimal makespan for exactly n tasks on the
// spider and a schedule achieving it.
func MinMakespan(sp platform.Spider, n int) (platform.Time, *sched.SpiderSchedule, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return 0, nil, err
	}
	return s.MinMakespan(n)
}
