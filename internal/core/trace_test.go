package core

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
)

// This file is the traced chain kernel and the Lemma 1/Lemma 2
// structural checks it feeds. The kernel materialises every candidate
// vector the backward construction weighs, O(p²) allocations per task,
// so production runs the flat kernel (placeNext) alone; the tests hold
// the two kernels to identical schedules and check the paper's lemmas
// on the traced one. runTraced is also the package's reference
// construction from scratch, anchored at the query's own horizon: the
// memoized horizon-0 plan (Incremental) is held to it for both the
// makespan and the deadline variant.

// Trace records, for every scheduled task, the candidate communication
// vectors the algorithm weighed (index k-1 holds the candidate targeting
// processor k) and the index of the chosen one. Tasks appear in emission
// order, matching the returned schedule; candidate times are absolute
// (pre-shift). Traces feed the Lemma 1/Lemma 2 structural checks.
type Trace struct {
	Horizon platform.Time
	// Candidates[i][k-1] is the candidate vector of task i+1 (emission
	// order) targeting processor k.
	Candidates [][][]platform.Time
	// Chosen[i] is the 1-based processor picked for task i+1.
	Chosen []int
}

// ScheduleTraced is Schedule plus the decision trace, built from scratch
// toward the paper's horizon T∞. The schedule is shifted to start at 0
// but the trace keeps absolute (pre-shift) times. As with Schedule, the
// chain is validated exactly once.
func ScheduleTraced(ch platform.Chain, n int) (*sched.ChainSchedule, *Trace, error) {
	s, tr, err := runTraced(ch, n, ch.MasterOnlyMakespan(n), false)
	if err != nil {
		return nil, nil, err
	}
	shiftToZero(s)
	return s, tr, nil
}

// runTraced performs the backward construction toward the given horizon
// and records the full decision trace: every candidate vector the
// algorithm weighed is materialised, which costs O(p²) allocations per
// task. In limited mode it stops early when a task would be emitted
// before time 0; otherwise it schedules exactly n tasks.
func runTraced(ch platform.Chain, n int, horizon platform.Time, limited bool) (*sched.ChainSchedule, *Trace, error) {
	if err := ch.Validate(); err != nil {
		return nil, nil, err
	}
	if n < 0 {
		return nil, nil, errors.New("core: negative task count")
	}
	e := newEngine(ch, horizon)
	tr := &Trace{Horizon: horizon}

	backward := make([]sched.ChainTask, 0, n)
	for i := 0; i < n; i++ {
		task, cands, ok := e.placeNextTraced()
		if !ok {
			return nil, nil, errEmptyPlacement(ch)
		}
		if limited && task.Comms[0] < 0 {
			break
		}
		e.commit(task)
		backward = append(backward, task)
		tr.Candidates = append(tr.Candidates, cands)
		tr.Chosen = append(tr.Chosen, task.Proc)
	}
	reverseTrace(tr)
	return reverseBackward(ch, backward), tr, nil
}

// errEmptyPlacement is the guard of the degenerate case: a placement
// with no candidate vector (an empty chain slipping past validation)
// must surface as an error, never as an out-of-range read of Comms[0].
func errEmptyPlacement(ch platform.Chain) error {
	return fmt.Errorf("core: internal error: no placement candidate on a %d-processor chain", ch.Len())
}

// reverseBackward reverses backward placements into emission order.
func reverseBackward(ch platform.Chain, backward []sched.ChainTask) *sched.ChainSchedule {
	s := &sched.ChainSchedule{Chain: ch, Tasks: make([]sched.ChainTask, len(backward))}
	for i, t := range backward {
		s.Tasks[len(backward)-1-i] = t
	}
	if ch.Len() > 0 && len(s.Tasks) > 1 {
		// The backward construction emits earlier tasks earlier by
		// design; Normalize is a no-op kept as a guard.
		s.Normalize()
	}
	return s
}

func shiftToZero(s *sched.ChainSchedule) {
	if len(s.Tasks) == 0 {
		return
	}
	s.Shift(-s.Tasks[0].Comms[0])
}

// reverseTrace reverses a backward trace into emission order.
func reverseTrace(tr *Trace) {
	for i, j := 0, len(tr.Chosen)-1; i < j; i, j = i+1, j-1 {
		tr.Chosen[i], tr.Chosen[j] = tr.Chosen[j], tr.Chosen[i]
		tr.Candidates[i], tr.Candidates[j] = tr.Candidates[j], tr.Candidates[i]
	}
}

// placeNextTraced is placeNext materialising every candidate vector for
// the decision trace; it allocates O(p²) per call and exists only for
// ScheduleTraced.
func (e *engine) placeNextTraced() (sched.ChainTask, [][]platform.Time, bool) {
	p := len(e.c) - 1
	if p == 0 {
		return sched.ChainTask{}, nil, false
	}
	cands := make([][]platform.Time, p)
	for k := 1; k <= p; k++ {
		v := make([]platform.Time, k)
		v[k-1] = min(e.o[k]-e.w[k], e.h[k]) - e.c[k]
		for j := k - 1; j >= 1; j-- {
			v[j-1] = min(v[j], e.h[j]) - e.c[j]
		}
		cands[k-1] = v
	}
	best := sched.VecMaxIndex(cands)
	proc := best + 1
	task := sched.ChainTask{
		Proc:  proc,
		Start: e.o[proc] - e.w[proc],
		Comms: append([]platform.Time(nil), cands[best]...),
	}
	return task, cands, true
}

// CheckLemma1 verifies the no-crossing property (Lemma 1, Fig. 4) on a
// decision trace: for every task and every pair of candidate vectors
// kC ≺ lC, every pair of suffixes starting at a common link q ≤ min(k,l)
// is ordered the same way. A violation would mean two candidate vectors
// "cross", which the paper proves impossible.
func CheckLemma1(tr *Trace) error {
	for i, cands := range tr.Candidates {
		for k := 1; k <= len(cands); k++ {
			for l := 1; l <= len(cands); l++ {
				if k == l {
					continue
				}
				a, b := cands[k-1], cands[l-1]
				if !sched.VecLess(a, b) {
					continue
				}
				for q := 1; q <= min(k, l); q++ {
					if !sched.VecLess(a[q-1:], b[q-1:]) {
						return fmt.Errorf("core: lemma 1 violated at task %d: %dC=%v ≺ %dC=%v but suffixes from link %d are not ordered",
							i+1, k, a, l, b, q)
					}
				}
			}
		}
	}
	return nil
}

// CheckLemma2 verifies the sub-chain projection property (Lemma 2): the
// tasks that the full-chain schedule sends past processor 1 form, after
// dropping their first hop and shifting time, exactly the schedule the
// algorithm produces on the sub-chain (c_2..c_p, w_2..w_p) for that many
// tasks.
func CheckLemma2(ch platform.Chain, n int) error {
	if ch.Len() < 2 {
		return fmt.Errorf("core: lemma 2 needs p ≥ 2, chain has %d", ch.Len())
	}
	full, err := Schedule(ch, n)
	if err != nil {
		return err
	}
	// Project: tasks with P(i) ≥ 2, dropping the first hop.
	var projected []sched.ChainTask
	for _, t := range full.Tasks {
		if t.Proc < 2 {
			continue
		}
		projected = append(projected, sched.ChainTask{
			Proc:  t.Proc - 1,
			Start: t.Start,
			Comms: append([]platform.Time(nil), t.Comms[1:]...),
		})
	}
	sub, err := Schedule(ch.Sub(2), len(projected))
	if err != nil {
		return err
	}
	if sub.Len() != len(projected) {
		return fmt.Errorf("core: lemma 2: sub-chain scheduled %d tasks, projection has %d", sub.Len(), len(projected))
	}
	if len(projected) == 0 {
		return nil
	}
	// Both sides are compared modulo a global time shift: anchor on the
	// first projected task's first remaining emission (the paper's
	// Tshift = min C_2^i).
	shift := projected[0].Comms[0] - sub.Tasks[0].Comms[0]
	for i := range projected {
		got, want := sub.Tasks[i], projected[i]
		if got.Proc != want.Proc {
			return fmt.Errorf("core: lemma 2: task %d on sub-chain proc %d, projection has %d", i+1, got.Proc, want.Proc)
		}
		if got.Start+shift != want.Start {
			return fmt.Errorf("core: lemma 2: task %d starts at %d (shifted %d), projection has %d",
				i+1, got.Start, got.Start+shift, want.Start)
		}
		for q := range got.Comms {
			if got.Comms[q]+shift != want.Comms[q] {
				return fmt.Errorf("core: lemma 2: task %d hop %d at %d (shifted %d), projection has %d",
					i+1, q+2, got.Comms[q], got.Comms[q]+shift, want.Comms[q])
			}
		}
	}
	return nil
}
