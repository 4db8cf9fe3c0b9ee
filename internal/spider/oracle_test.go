package spider

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// This file holds the test-only oracles the solver's equivalence tests
// compare its single production path against: the slice-packing probe,
// the per-leg plan set without dedup and the unseeded deadline search.

// sliceOracle answers queries through the slice-packing probe over a
// solver's leg plans: every leg's run is materialised from its fit
// count, the whole stream is sorted into admission order and packed by
// the slice packer, with no ceiling and no merge. Streamed counts the
// candidates it materialised, over all probes.
type sliceOracle struct {
	s        *Solver
	streamed int64
}

// newSliceOracle returns the slice-packing oracle on its own solver's
// leg plans, so the solver under test keeps its telemetry to itself.
func newSliceOracle(t *testing.T, sp platform.Spider) *sliceOracle {
	t.Helper()
	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	return &sliceOracle{s: s}
}

// probe runs one slice-packing probe and reverts its packing.
func (o *sliceOracle) probe(n int, deadline platform.Time) (*sched.SpiderSchedule, int, error) {
	if err := o.s.prepare(n, deadline); err != nil {
		return nil, 0, err
	}
	var stream []platform.VirtualSlave
	for b, lp := range o.s.legs {
		for j, k := 0, lp.fit(n, deadline); j < k; j++ {
			stream = append(stream, platform.VirtualSlave{Comm: lp.c1, Proc: lp.proc(j), Leg: b, Rank: j})
		}
	}
	o.streamed += int64(len(stream))
	slices.SortFunc(stream, platform.CompareVirtualSlaves)
	a, err := packSorted(stream, n, deadline)
	if err != nil {
		return nil, 0, err
	}
	out, err := o.s.revert(a, deadline)
	return out, len(a.Slaves), err
}

func (o *sliceOracle) MaxTasks(n int, deadline platform.Time) (int, error) {
	_, k, err := o.probe(n, deadline)
	return k, err
}

func (o *sliceOracle) ScheduleWithin(n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	out, _, err := o.probe(n, deadline)
	return out, err
}

func (o *sliceOracle) MinMakespan(n int) (platform.Time, *sched.SpiderSchedule, error) {
	mk, _, err := bisectMinMakespan(o.s.Spider(), n, 1, o.MaxTasks)
	if err != nil {
		return 0, nil, err
	}
	out, err := o.ScheduleWithin(n, mk)
	return mk, out, err
}

// newPerLegSolver returns a solver owning one independent plan per leg,
// with no dedup: the per-leg construction that the dedup'd solver must
// match schedule for schedule.
func newPerLegSolver(t *testing.T, sp platform.Spider) *Solver {
	t.Helper()
	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	s.plans = nil
	for b, leg := range sp.Legs {
		inc, err := core.NewIncremental(leg)
		if err != nil {
			t.Fatal(err)
		}
		lp := &legPlan{inc: inc, c1: leg.Comm(1), mult: 1}
		s.legs[b] = lp
		s.plans = append(s.plans, lp)
	}
	return s
}

// bisectMinMakespan is the unseeded deadline search: plain bisection of
// [lo, master-only makespan], one maxTasks probe per step. It reads no
// bound but the lo it is given, so with lo = 1 its optimum does not
// depend on the steady-state bound the seeded search starts from. It
// returns the optimum and the number of probes made.
func bisectMinMakespan(sp platform.Spider, n int, lo platform.Time, maxTasks func(int, platform.Time) (int, error)) (platform.Time, int, error) {
	hi, probes := sp.MasterOnlyMakespan(n), 0
	for lo < hi {
		mid := lo + (hi-lo)/2
		probes++
		k, err := maxTasks(n, mid)
		if err != nil {
			return 0, probes, err
		}
		if k == n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, probes, nil
}
