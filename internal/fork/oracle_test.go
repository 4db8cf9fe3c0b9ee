package fork

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/platform"
	"repro/internal/sched"
)

// This file is the test-only oracle ladder of the §6 algorithm: the
// direct Fig. 6 expansion path (expand every slave, sort the stream,
// pack, revert FIFO) and the packers it can run on. Production never
// takes it — forks solve as one-node-leg spiders through
// spider.Solver, which drives Packer directly — so it lives beside the
// tests that hold Packer, and through it the spider path, to it.

// expandFork applies platform.ExpandNode to every slave of the fork,
// producing count virtual slaves per physical slave. Leg is set to the
// slave index.
func expandFork(f platform.Fork, count int) []platform.VirtualSlave {
	out := make([]platform.VirtualSlave, 0, count*len(f.Slaves))
	for i, n := range f.Slaves {
		out = append(out, platform.ExpandNode(n, count, i)...)
	}
	return out
}

// Pack admits at most n virtual slaves within the deadline using the
// greedy admission of [2]: candidates are scanned in ascending (Comm,
// Proc) order and kept whenever the decreasing-processing-time packing
// remains feasible. The input slice is not modified.
//
// Each candidate costs O(log n) on the tree packer (PackTree).
func Pack(vs []platform.VirtualSlave, n int, deadline platform.Time) (*Allocation, error) {
	order := append([]platform.VirtualSlave(nil), vs...)
	slices.SortFunc(order, platform.CompareVirtualSlaves)
	return PackTree(order, n, deadline)
}

// PackSorted is Pack for candidates already in admission order
// (ascending CompareVirtualSlaves), in its original slice-based form:
// each acceptance rebuilds the elapsed/minSlack state in O(n). It is
// the mid-rung of the equivalence ladder — packFeasible is the O(n²)
// spec, PackSorted the incremental slice packer, Packer/PackTree the
// O(log n) tree packer riding the hot path. The input slice is not
// modified.
func PackSorted(order []platform.VirtualSlave, n int, deadline platform.Time) (*Allocation, error) {
	if deadline < 0 {
		return nil, fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return nil, fmt.Errorf("fork: negative task count %d", n)
	}
	// selected is kept sorted by decreasing Proc (emission order), with
	// elapsed[i] the cumulative communication through selected[i] and
	// minSlack[i] = min_{j≥i} (deadline − elapsed[j] − selected[j].Proc),
	// the largest uniform delay the suffix starting at i tolerates.
	var (
		selected []platform.VirtualSlave
		elapsed  []platform.Time
		minSlack []platform.Time
	)
	for _, cand := range order {
		if len(selected) == n {
			break
		}
		// Insertion position: after all entries with Proc >= cand.Proc.
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

	alloc := &Allocation{Deadline: deadline, Slaves: make([]Chosen, 0, len(selected))}
	var at platform.Time
	for _, v := range selected {
		alloc.Slaves = append(alloc.Slaves, Chosen{VirtualSlave: v, EmitStart: at})
		at += v.Comm
	}
	return alloc, nil
}

// packFeasible checks the prefix condition: emitting back-to-back from
// time 0 in the given (decreasing Proc) order, every task completes by
// the deadline. It is the O(n) specification the incremental checks of
// PackSorted and Packer implement.
func packFeasible(sel []platform.VirtualSlave, deadline platform.Time) bool {
	var elapsed platform.Time
	for _, v := range sel {
		elapsed += v.Comm
		if elapsed+v.Proc > deadline {
			return false
		}
	}
	return true
}

// MaxTasks returns how many of at most n tasks fit on the fork within
// the deadline.
func MaxTasks(f platform.Fork, n int, deadline platform.Time) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	alloc, err := Pack(expandFork(f, n), n, deadline)
	if err != nil {
		return 0, err
	}
	return len(alloc.Slaves), nil
}

// ScheduleWithin schedules as many tasks as possible (at most n) on the
// fork within the deadline and reverts the allocation into a concrete
// schedule: per slave, tasks execute FIFO in arrival order. The schedule
// is expressed on the fork's spider form (single-node legs).
func ScheduleWithin(f platform.Fork, n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	alloc, err := Pack(expandFork(f, n), n, deadline)
	if err != nil {
		return nil, err
	}
	return revert(f, alloc), nil
}

// revert turns an allocation into a concrete fork schedule. Virtual
// slaves of one physical slave arrive in decreasing rank order; FIFO
// execution completes each task by its virtual promise (the Fig. 6
// expansion encodes exactly the pipelining slack; see the package test
// TestRevertMeetsVirtualPromises).
func revert(f platform.Fork, alloc *Allocation) *sched.SpiderSchedule {
	s := &sched.SpiderSchedule{Spider: f.Spider()}
	procFree := make([]platform.Time, f.Len())
	for _, c := range alloc.Slaves {
		slave := f.Slaves[c.Leg]
		arrival := c.EmitStart + slave.Comm
		start := max(arrival, procFree[c.Leg])
		procFree[c.Leg] = start + slave.Work
		s.Tasks = append(s.Tasks, sched.SpiderTask{
			Leg: c.Leg,
			ChainTask: sched.ChainTask{
				Proc:  1,
				Start: start,
				Comms: []platform.Time{c.EmitStart},
			},
		})
	}
	return s
}

// MinMakespan returns the smallest makespan for exactly n tasks on the
// fork, found by binary search on the deadline, together with a schedule
// achieving it. n must be positive.
func MinMakespan(f platform.Fork, n int) (platform.Time, *sched.SpiderSchedule, error) {
	if err := f.Validate(); err != nil {
		return 0, nil, err
	}
	if n <= 0 {
		return 0, nil, fmt.Errorf("fork: task count %d is not positive", n)
	}
	vs := expandFork(f, n)
	fits := func(deadline platform.Time) bool {
		alloc, err := Pack(vs, n, deadline)
		return err == nil && len(alloc.Slaves) == n
	}
	lo, hi := platform.Time(1), f.Spider().MasterOnlyMakespan(n)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s, err := ScheduleWithin(f, n, lo)
	if err != nil {
		return 0, nil, err
	}
	if s.Len() != n {
		return 0, nil, fmt.Errorf("fork: internal error: %d tasks at deadline %d, want %d", s.Len(), lo, n)
	}
	return lo, s, nil
}

// NewPacker returns an empty packer admitting at most n virtual slaves
// against the deadline.
func NewPacker(n int, deadline platform.Time) (*Packer, error) {
	p := &Packer{}
	if err := p.Reset(n, deadline); err != nil {
		return nil, err
	}
	return p, nil
}

// PackTree is PackSorted on the balanced-tree packer: candidates already
// in admission order stream through Offer, stopping once n tasks are
// admitted. The input slice is not modified.
func PackTree(order []platform.VirtualSlave, n int, deadline platform.Time) (*Allocation, error) {
	p, err := NewPacker(n, deadline)
	if err != nil {
		return nil, err
	}
	for _, cand := range order {
		if p.Full() {
			break
		}
		p.Offer(cand)
	}
	return p.Allocation(), nil
}
