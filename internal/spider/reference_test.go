package spider

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fork"
	"repro/internal/platform"
	"repro/internal/sched"
)

// This file keeps the original, direct implementation of the §7
// algorithm as the test-only reference path. It recomputes every leg
// plan from scratch at every deadline probe — O(n·p²) per leg per probe
// — which the memoized solver in spider.go amortises away. The
// equivalence tests replay both paths on randomized instances and
// require identical schedules, so the reference anchors the fast path's
// correctness to the exhaustively validated original.

// packSorted is the slice-based fork packer, the independent
// implementation of the §6 greedy that the reference and the
// slice-packing oracle pack with: candidates already in admission order
// (ascending platform.CompareVirtualSlaves) are kept whenever the
// decreasing-Proc emission order stays feasible, and each acceptance
// rebuilds the elapsed/minSlack state in O(n). The fork package's tests
// hold the same packer beside the O(n²) spec and the tree packer.
func packSorted(order []platform.VirtualSlave, n int, deadline platform.Time) (*fork.Allocation, error) {
	if deadline < 0 {
		return nil, fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return nil, fmt.Errorf("fork: negative task count %d", n)
	}
	// selected is kept sorted by decreasing Proc (emission order), with
	// elapsed[i] the cumulative communication through selected[i] and
	// minSlack[i] = min_{j≥i} (deadline − elapsed[j] − selected[j].Proc).
	var (
		selected []platform.VirtualSlave
		elapsed  []platform.Time
		minSlack []platform.Time
	)
	for _, cand := range order {
		if len(selected) == n {
			break
		}
		pos := sort.Search(len(selected), func(i int) bool {
			return selected[i].Proc < cand.Proc
		})
		var before platform.Time
		if pos > 0 {
			before = elapsed[pos-1]
		}
		if before+cand.Comm+cand.Proc > deadline {
			continue
		}
		if pos < len(selected) && minSlack[pos] < cand.Comm {
			continue
		}
		selected = append(selected, platform.VirtualSlave{})
		copy(selected[pos+1:], selected[pos:])
		selected[pos] = cand
		elapsed = append(elapsed, 0)
		for i := pos; i < len(selected); i++ {
			var prev platform.Time
			if i > 0 {
				prev = elapsed[i-1]
			}
			elapsed[i] = prev + selected[i].Comm
		}
		minSlack = append(minSlack, 0)
		for i := len(selected) - 1; i >= 0; i-- {
			sl := deadline - elapsed[i] - selected[i].Proc
			if i+1 < len(selected) && minSlack[i+1] < sl {
				sl = minSlack[i+1]
			}
			minSlack[i] = sl
		}
	}
	alloc := &fork.Allocation{Deadline: deadline, Slaves: make([]fork.Chosen, 0, len(selected))}
	var at platform.Time
	for _, v := range selected {
		alloc.Slaves = append(alloc.Slaves, fork.Chosen{VirtualSlave: v, EmitStart: at})
		at += v.Comm
	}
	return alloc, nil
}

// referenceLegPlans runs the time-limited chain algorithm on every leg
// and returns the per-leg schedules plus the virtual slaves of step 2.
func referenceLegPlans(sp platform.Spider, n int, deadline platform.Time) ([]*sched.ChainSchedule, []platform.VirtualSlave, error) {
	plans := make([]*sched.ChainSchedule, sp.NumLegs())
	var virt []platform.VirtualSlave
	for b, leg := range sp.Legs {
		plan, err := core.ScheduleWithin(leg, n, deadline)
		if err != nil {
			return nil, nil, fmt.Errorf("spider: leg %d: %w", b, err)
		}
		plans[b] = plan
		c1 := leg.Comm(1)
		for i, t := range plan.Tasks {
			virt = append(virt, platform.VirtualSlave{
				Comm: c1,
				Proc: deadline - t.Comms[0] - c1,
				Leg:  b,
				Rank: i,
			})
		}
	}
	return plans, virt, nil
}

// ReferenceScheduleWithin is the original ScheduleWithin: it schedules
// as many tasks as possible — at most n — on the spider completing
// within [0, deadline] (Theorem 3), rebuilding every leg plan from
// scratch.
func ReferenceScheduleWithin(sp platform.Spider, n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("spider: negative task count %d", n)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("spider: negative deadline %d", deadline)
	}
	plans, virt, err := referenceLegPlans(sp, n, deadline)
	if err != nil {
		return nil, err
	}
	// Pack via the slice-based packer, NOT fork.Packer: the reference
	// path must stay off the tree packer so the fast-vs-reference
	// equivalence tests anchor the production packing to an independent
	// implementation of the greedy.
	slices.SortFunc(virt, platform.CompareVirtualSlaves)
	alloc, err := packSorted(virt, n, deadline)
	if err != nil {
		return nil, err
	}
	// Revert (Lemma 3): the chosen virtual slave (leg b, rank i) is leg
	// b's i-th scheduled task with its first send moved to the packed
	// slot. The packing guarantees EmitStart ≤ the original C_1^i, so
	// moving the send earlier keeps condition (1); port slots are
	// pairwise disjoint by construction.
	s := &sched.SpiderSchedule{Spider: sp}
	for _, c := range alloc.Slaves {
		t := plans[c.Leg].Tasks[c.Rank].Clone()
		if c.EmitStart > t.Comms[0] {
			return nil, fmt.Errorf("spider: internal error: packed send %d after promised latest %d", c.EmitStart, t.Comms[0])
		}
		t.Comms[0] = c.EmitStart
		s.Tasks = append(s.Tasks, sched.SpiderTask{Leg: c.Leg, ChainTask: t})
	}
	return s, nil
}

// ReferenceMaxTasks returns how many of at most n tasks complete within
// the deadline, via the reference path.
func ReferenceMaxTasks(sp platform.Spider, n int, deadline platform.Time) (int, error) {
	s, err := ReferenceScheduleWithin(sp, n, deadline)
	if err != nil {
		return 0, err
	}
	return s.Len(), nil
}

// ReferenceMinMakespan is the original MinMakespan: binary search on
// the deadline with a full reference evaluation per probe.
func ReferenceMinMakespan(sp platform.Spider, n int) (platform.Time, *sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return 0, nil, err
	}
	if n <= 0 {
		return 0, nil, fmt.Errorf("spider: task count %d is not positive", n)
	}
	fits := func(deadline platform.Time) (bool, error) {
		m, err := ReferenceMaxTasks(sp, n, deadline)
		if err != nil {
			return false, err
		}
		return m == n, nil
	}
	lo, hi := platform.Time(1), sp.MasterOnlyMakespan(n)
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := fits(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s, err := ReferenceScheduleWithin(sp, n, lo)
	if err != nil {
		return 0, nil, err
	}
	if s.Len() != n {
		return 0, nil, fmt.Errorf("spider: internal error: %d tasks at deadline %d, want %d", s.Len(), lo, n)
	}
	return lo, s, nil
}

// BenchmarkSpiderMinMakespanReference runs the unmemoized reference
// path on the instances of the root BenchmarkSpiderMinMakespan, so the
// memoization's win stays measurable side by side.
func BenchmarkSpiderMinMakespanReference(b *testing.B) {
	g := platform.MustGenerator(5, 1, 9, platform.Uniform)
	sp := g.Spider(4, 3)
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ReferenceMinMakespan(sp, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
