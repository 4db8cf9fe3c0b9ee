// Package fork implements the fork-graph (star) scheduling algorithm of
// Beaumont, Carter, Ferrante, Legrand and Robert recalled in §6 of the
// paper, which the spider algorithm of §7 builds on.
//
// The algorithm answers the dual question "how many tasks fit within a
// deadline Tlim?":
//
//  1. Every physical slave (c, w) is expanded into single-task virtual
//     slaves (c, w + k·max(c,w)) for k = 0, 1, … (Fig. 6): the task
//     executed k-from-last on the slave completes w + k·max(c,w) after
//     its communication ends, because consecutive tasks through one
//     slave are separated by at least max(c, w).
//  2. Any feasible single-task-slaves schedule can be reordered so the
//     master emits tasks by decreasing effective processing time,
//     back-to-back; a set S of virtual slaves is then feasible iff, in
//     that order, every prefix satisfies Σ_{j≤k} c_j + t_k ≤ Tlim.
//  3. Virtual slaves are admitted greedily in ascending communication
//     time (ties: ascending effective processing time), keeping a
//     candidate whenever the packing check still passes. [2] proves this
//     maximises the number of admitted tasks.
//
// Binary search over Tlim (the optimal makespan is an integer bounded by
// the master-only schedule) recovers the minimum makespan for n tasks.
//
// The greedy runs on Packer, a treap over the admitted set that tests
// and admits one candidate in O(log n). Packer also keeps a ceiling:
// once the greedy rejects a candidate, it rejects every later one whose
// processing time is at least as large (the ceiling lemma, proved at
// Packer.critical). Packer rejects those in O(1), and a caller merging
// per-slave runs — whose virtual slaves share c and grow in processing
// time — can stop reading a run at its first rejection, so one packing
// offers at most n + runs candidates. PackSorted (slice-based) and
// packFeasible (the O(n²) spec) stay as the equivalence oracles.
package fork

import (
	"fmt"
	"sort"

	"repro/internal/platform"
	"repro/internal/sched"
)

// Chosen is one admitted virtual slave together with its emission
// window on the master port: the send occupies [EmitStart, EmitStart+c).
type Chosen struct {
	platform.VirtualSlave
	EmitStart platform.Time
}

// Allocation is the result of packing virtual slaves against a deadline.
// Slaves appear in emission order (decreasing effective processing
// time), with back-to-back emission windows starting at time 0.
type Allocation struct {
	Deadline platform.Time
	Slaves   []Chosen
}

// Len returns the number of admitted tasks.
func (a *Allocation) Len() int { return len(a.Slaves) }

// Pack admits at most n virtual slaves within the deadline using the
// greedy admission of [2]: candidates are scanned in ascending (Comm,
// Proc) order and kept whenever the decreasing-processing-time packing
// remains feasible. The input slice is not modified.
//
// Each candidate costs O(log n): the admitted set lives in a balanced
// tree (Packer) whose per-subtree aggregates answer both feasibility
// conditions — the candidate's own prefix constraint and the minimum
// slack over the displaced suffix — during one root-to-leaf descent,
// and admission is a treap insertion. PackSorted keeps the slice-based
// implementation (O(n) state rebuild per acceptance) as the reference
// the equivalence tests compare against.
func Pack(vs []platform.VirtualSlave, n int, deadline platform.Time) (*Allocation, error) {
	order := append([]platform.VirtualSlave(nil), vs...)
	platform.SortVirtualSlaves(order)
	return PackTree(order, n, deadline)
}

// PackSorted is Pack for candidates already in admission order
// (ascending CompareVirtualSlaves), in its original slice-based form:
// each acceptance rebuilds the elapsed/minSlack state in O(n). It is
// kept as the mid-rung of the equivalence ladder — packFeasible is the
// O(n²) spec, PackSorted the incremental slice packer, Packer/PackTree
// the O(log n) tree packer riding the hot path — and as the ablation
// comparator the E5w experiment measures the tree packer against. The
// input slice is not modified.
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
// the deadline. It is the O(n) specification the incremental check in
// Pack implements; the ablation test keeps both honest.
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
	alloc, err := Pack(platform.ExpandFork(f, n), n, deadline)
	if err != nil {
		return 0, err
	}
	return alloc.Len(), nil
}

// ScheduleWithin schedules as many tasks as possible (at most n) on the
// fork within the deadline and reverts the allocation into a concrete
// schedule: per slave, tasks execute FIFO in arrival order. The schedule
// is expressed on the fork's spider form (single-node legs).
func ScheduleWithin(f platform.Fork, n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	alloc, err := Pack(platform.ExpandFork(f, n), n, deadline)
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
	vs := platform.ExpandFork(f, n)
	fits := func(deadline platform.Time) bool {
		alloc, err := Pack(vs, n, deadline)
		return err == nil && alloc.Len() == n
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
