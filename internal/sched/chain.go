package sched

import (
	"fmt"
	"sort"

	"repro/internal/platform"
	"repro/internal/trace"
)

// ChainTask is one scheduled task on a chain: the paper's triple
// (P(i), T(i), C(i)).
type ChainTask struct {
	// Proc is P(i), the 1-based index of the executing processor.
	Proc int `json:"proc"`
	// Start is T(i), the execution start time.
	Start platform.Time `json:"start"`
	// Comms is C(i): Comms[k-1] is C_k^i, the emission time on the link
	// entering processor k, for k = 1..Proc. len(Comms) == Proc.
	Comms []platform.Time `json:"comms"`
}

// End returns the completion time of the task on the given chain.
func (t ChainTask) End(ch platform.Chain) platform.Time {
	return t.Start + ch.Work(t.Proc)
}

// Clone deep-copies the task.
func (t ChainTask) Clone() ChainTask {
	c := t
	c.Comms = append([]platform.Time(nil), t.Comms...)
	return c
}

// Shifted returns a deep copy of the task with every time translated by
// delta. It lets memoized plans keep one canonical (relative) copy of a
// placement and stamp out absolute-time instances on demand.
func (t ChainTask) Shifted(delta platform.Time) ChainTask {
	c := t
	c.Start += delta
	c.Comms = make([]platform.Time, len(t.Comms))
	for k, v := range t.Comms {
		c.Comms[k] = v + delta
	}
	return c
}

// Equal reports whether two tasks are identical placements.
func (t ChainTask) Equal(o ChainTask) bool {
	if t.Proc != o.Proc || t.Start != o.Start || len(t.Comms) != len(o.Comms) {
		return false
	}
	for k := range t.Comms {
		if t.Comms[k] != o.Comms[k] {
			return false
		}
	}
	return true
}

// ChainSchedule is a complete schedule of tasks on a chain. Task i of the
// paper is Tasks[i-1].
type ChainSchedule struct {
	Chain platform.Chain `json:"chain"`
	Tasks []ChainTask    `json:"tasks"`
}

// Len returns the number of scheduled tasks n.
func (s *ChainSchedule) Len() int { return len(s.Tasks) }

// Makespan returns max_i T(i) + w_{P(i)}, the termination date of the
// last task (Definition 2), or 0 for an empty schedule.
func (s *ChainSchedule) Makespan() platform.Time {
	var mk platform.Time
	for _, t := range s.Tasks {
		if end := t.End(s.Chain); end > mk {
			mk = end
		}
	}
	return mk
}

// Counts returns the number of tasks placed on each processor; index k-1
// holds the count of processor k.
func (s *ChainSchedule) Counts() []int {
	counts := make([]int, s.Chain.Len())
	for _, t := range s.Tasks {
		counts[t.Proc-1]++
	}
	return counts
}

// Shift translates every time in the schedule by delta (the algorithm's
// final "shift of C_1^1 units" uses a negative delta).
func (s *ChainSchedule) Shift(delta platform.Time) {
	for i := range s.Tasks {
		s.Tasks[i].Start += delta
		for k := range s.Tasks[i].Comms {
			s.Tasks[i].Comms[k] += delta
		}
	}
}

// Normalize reorders tasks by first emission time (the paper's
// without-loss-of-generality convention C_1^1 ≤ C_1^2 ≤ … ≤ C_1^n),
// breaking ties by start time.
func (s *ChainSchedule) Normalize() {
	sort.SliceStable(s.Tasks, func(i, j int) bool {
		a, b := s.Tasks[i], s.Tasks[j]
		if a.Comms[0] != b.Comms[0] {
			return a.Comms[0] < b.Comms[0]
		}
		return a.Start < b.Start
	})
}

// Clone deep-copies the schedule.
func (s *ChainSchedule) Clone() *ChainSchedule {
	out := &ChainSchedule{Chain: s.Chain.Clone(), Tasks: make([]ChainTask, len(s.Tasks))}
	for i, t := range s.Tasks {
		out.Tasks[i] = t.Clone()
	}
	return out
}

// Equal reports whether two schedules place the same tasks on the same
// chain (order-sensitive).
func (s *ChainSchedule) Equal(o *ChainSchedule) bool {
	if len(s.Tasks) != len(o.Tasks) || len(s.Chain.Nodes) != len(o.Chain.Nodes) {
		return false
	}
	for i, n := range s.Chain.Nodes {
		if n != o.Chain.Nodes[i] {
			return false
		}
	}
	for i := range s.Tasks {
		if !s.Tasks[i].Equal(o.Tasks[i]) {
			return false
		}
	}
	return true
}

// Verify checks structural sanity (indices in range, vector lengths,
// non-negative times) and the four feasibility conditions of
// Definition 1. Pairwise resource conditions are checked in O(n log n)
// by sorting per-resource events: with equal occupation lengths per
// resource, adjacent-gap checks are equivalent to all-pairs checks.
func (s *ChainSchedule) Verify() error {
	p := s.Chain.Len()
	if err := s.Chain.Validate(); err != nil {
		return fmt.Errorf("sched: invalid chain: %w", err)
	}
	for i, t := range s.Tasks {
		if t.Proc < 1 || t.Proc > p {
			return fmt.Errorf("sched: task %d on processor %d, chain has %d", i+1, t.Proc, p)
		}
		if len(t.Comms) != t.Proc {
			return fmt.Errorf("sched: task %d has %d communications, want P(i)=%d", i+1, len(t.Comms), t.Proc)
		}
		if t.Comms[0] < 0 {
			return fmt.Errorf("sched: task %d emitted at negative time %d", i+1, t.Comms[0])
		}
		// Condition (1): hops in order.
		for k := 2; k <= t.Proc; k++ {
			if t.Comms[k-2]+s.Chain.Comm(k-1) > t.Comms[k-1] {
				return fmt.Errorf("sched: task %d re-emitted on link %d at %d before reception completes at %d (condition 1)",
					i+1, k, t.Comms[k-1], t.Comms[k-2]+s.Chain.Comm(k-1))
			}
		}
		// Condition (2): received before executing.
		if arr := t.Comms[t.Proc-1] + s.Chain.Comm(t.Proc); arr > t.Start {
			return fmt.Errorf("sched: task %d starts at %d before its reception completes at %d (condition 2)",
				i+1, t.Start, arr)
		}
	}
	// Condition (3): per-processor execution exclusivity.
	byProc := make([][]platform.Time, p+1)
	for _, t := range s.Tasks {
		byProc[t.Proc] = append(byProc[t.Proc], t.Start)
	}
	for k := 1; k <= p; k++ {
		if err := checkMinGap(byProc[k], s.Chain.Work(k)); err != nil {
			return fmt.Errorf("sched: processor %d: %w (condition 3)", k, err)
		}
	}
	// Condition (4): per-link emission exclusivity.
	byLink := make([][]platform.Time, p+1)
	for _, t := range s.Tasks {
		for k := 1; k <= t.Proc; k++ {
			byLink[k] = append(byLink[k], t.Comms[k-1])
		}
	}
	for k := 1; k <= p; k++ {
		if err := checkMinGap(byLink[k], s.Chain.Comm(k)); err != nil {
			return fmt.Errorf("sched: link %d: %w (condition 4)", k, err)
		}
	}
	return nil
}

// checkMinGap verifies that sorted event times are pairwise at least gap
// apart; with identical occupation lengths this is exactly the
// no-overlap condition.
func checkMinGap(times []platform.Time, gap platform.Time) error {
	ts := append([]platform.Time(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for i := 1; i < len(ts); i++ {
		if ts[i]-ts[i-1] < gap {
			return fmt.Errorf("events at %d and %d closer than %d", ts[i-1], ts[i], gap)
		}
	}
	return nil
}

// Intervals expands the schedule into resource-occupation intervals for
// rendering and cross-checking: one Comm interval per hop, one Exec
// interval per task, and a Wait interval when a task is buffered between
// arrival and execution (the dashed curve of Fig. 2).
func (s *ChainSchedule) Intervals() []trace.Interval {
	var ivs []trace.Interval
	for i, t := range s.Tasks {
		task := i + 1
		for k := 1; k <= t.Proc; k++ {
			ivs = append(ivs, trace.Interval{
				Resource: fmt.Sprintf("link %d", k),
				Task:     task,
				Kind:     trace.Comm,
				Start:    t.Comms[k-1],
				End:      t.Comms[k-1] + s.Chain.Comm(k),
			})
		}
		arrival := t.Comms[t.Proc-1] + s.Chain.Comm(t.Proc)
		if arrival < t.Start {
			ivs = append(ivs, trace.Interval{
				Resource: fmt.Sprintf("proc %d", t.Proc),
				Task:     task,
				Kind:     trace.Wait,
				Start:    arrival,
				End:      t.Start,
			})
		}
		ivs = append(ivs, trace.Interval{
			Resource: fmt.Sprintf("proc %d", t.Proc),
			Task:     task,
			Kind:     trace.Exec,
			Start:    t.Start,
			End:      t.End(s.Chain),
		})
	}
	return ivs
}

// String summarises the schedule, one task per line.
func (s *ChainSchedule) String() string {
	out := fmt.Sprintf("chain schedule: %d tasks, makespan %d\n", s.Len(), s.Makespan())
	for i, t := range s.Tasks {
		out += fmt.Sprintf("  task %d -> proc %d, start %d, comms %v\n", i+1, t.Proc, t.Start, t.Comms)
	}
	return out
}
