package opt

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
)

// SpiderDest addresses one processor of a spider: 0-based leg, 1-based
// depth within the leg.
type SpiderDest struct {
	Leg  int
	Proc int
}

// ForwardSpider builds the ASAP/FIFO schedule for the given destination
// sequence on a spider. The master's send port serialises first-hop
// communications across legs in emission order; each leg then behaves
// like a chain.
func ForwardSpider(sp platform.Spider, dests []SpiderDest) (*sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	first := make([]int, sp.NumLegs()) // node id of each leg's depth 1
	for b := 1; b < sp.NumLegs(); b++ {
		first[b] = first[b-1] + sp.Legs[b-1].Len()
	}
	ids := make([]int, len(dests))
	for i, d := range dests {
		if d.Leg < 0 || d.Leg >= sp.NumLegs() {
			return nil, fmt.Errorf("opt: task %d leg %d outside [0,%d)", i+1, d.Leg, sp.NumLegs())
		}
		if l := sp.Legs[d.Leg].Len(); d.Proc < 1 || d.Proc > l {
			return nil, fmt.Errorf("opt: task %d depth %d outside [1,%d]", i+1, d.Proc, l)
		}
		ids[i] = first[d.Leg] + d.Proc - 1
	}
	return replay(spiderForward(sp), sp, ids), nil
}

// BruteSpider returns an optimal schedule and makespan for n tasks on
// the spider by exhaustive search over the (total processors)^n
// destination sequences.
func BruteSpider(sp platform.Spider, n int) (*sched.SpiderSchedule, platform.Time, error) {
	if err := sp.Validate(); err != nil {
		return nil, 0, err
	}
	return bruteSpider(sp, n)
}

// BruteSpiderMaxTasks returns the largest m ≤ limit whose optimal
// makespan fits within the deadline.
func BruteSpiderMaxTasks(sp platform.Spider, limit int, deadline platform.Time) (int, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	return spiderForward(sp).maxTasks(limit, deadline), nil
}

// BruteFork returns an optimal schedule and makespan for n tasks on a
// fork by reducing it to the equivalent single-node-leg spider.
func BruteFork(f platform.Fork, n int) (*sched.SpiderSchedule, platform.Time, error) {
	return BruteSpider(f.Spider(), n)
}

// BruteForkMaxTasks returns the largest m ≤ limit whose optimal makespan
// on the fork fits within the deadline.
func BruteForkMaxTasks(f platform.Fork, limit int, deadline platform.Time) (int, error) {
	return BruteSpiderMaxTasks(f.Spider(), limit, deadline)
}

// bruteSpider is BruteSpider on a validated spider.
func bruteSpider(sp platform.Spider, n int) (*sched.SpiderSchedule, platform.Time, error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("opt: negative task count %d", n)
	}
	f := spiderForward(sp)
	mk, ids := f.Brute(n)
	return replay(f, sp, ids), mk, nil
}

func spiderForward(sp platform.Spider) *Forward {
	return NewForward(platform.TreeFromSpider(sp))
}

// replay runs the node ids on the idle model f as sp's schedule.
func replay(f *Forward, sp platform.Spider, ids []int) *sched.SpiderSchedule {
	s := &sched.SpiderSchedule{Spider: sp, Tasks: make([]sched.SpiderTask, len(ids))}
	for i, u := range ids {
		s.Tasks[i] = f.Task(u)
	}
	return s
}
