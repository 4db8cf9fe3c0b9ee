// Package baseline provides the practical scheduling heuristics and the
// relaxation bounds that the paper's optimal algorithms are measured
// against in the reproduction experiments E8 and E9 (`msbench -list`).
//
// The heuristics are forward, online-style policies:
//
//   - ForwardGreedy: earliest-completion-time list scheduling — each task
//     in emission order goes to the processor that would finish it
//     soonest given the current resource commitments (ASAP/FIFO).
//   - RoundRobin: tasks cycle over the processors.
//   - MasterOnly: every task on the first processor (the paper's T∞
//     schedule, also the backward algorithm's horizon).
//
// The bounds (bounds.go) come from the steady-state / divisible-load
// relaxation of the related work ([2], Bataineh–Robertazzi): exact
// rational throughputs and the induced makespan lower bound.
package baseline

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
)

// ChainScheduler is a named scheduling policy for chains.
type ChainScheduler interface {
	Name() string
	Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error)
}

// chainState is the forward ASAP/FIFO resource state shared by the
// chain heuristics.
type chainState struct {
	ch       platform.Chain
	linkFree []platform.Time
	procFree []platform.Time
}

func newChainState(ch platform.Chain) *chainState {
	return &chainState{
		ch:       ch,
		linkFree: make([]platform.Time, ch.Len()+1),
		procFree: make([]platform.Time, ch.Len()+1),
	}
}

// completion returns the finish time of the next task if sent to d,
// without committing it.
func (st *chainState) completion(d int) platform.Time {
	var hop platform.Time
	for k := 1; k <= d; k++ {
		start := max(st.linkFree[k], hop)
		hop = start + st.ch.Comm(k)
	}
	return max(hop, st.procFree[d]) + st.ch.Work(d)
}

// commit sends the next task to d and returns its assignment.
func (st *chainState) commit(d int) sched.ChainTask {
	comms := make([]platform.Time, d)
	var hop platform.Time
	for k := 1; k <= d; k++ {
		start := max(st.linkFree[k], hop)
		comms[k-1] = start
		hop = start + st.ch.Comm(k)
		st.linkFree[k] = hop
	}
	begin := max(hop, st.procFree[d])
	st.procFree[d] = begin + st.ch.Work(d)
	return sched.ChainTask{Proc: d, Start: begin, Comms: comms}
}

// ForwardGreedy is earliest-completion-time list scheduling.
type ForwardGreedy struct{}

// Name implements ChainScheduler.
func (ForwardGreedy) Name() string { return "forward-greedy" }

// Schedule implements ChainScheduler: every task goes to the processor
// minimising its own completion time, ties to the shallowest processor.
func (ForwardGreedy) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	st := newChainState(ch)
	s := &sched.ChainSchedule{Chain: ch, Tasks: make([]sched.ChainTask, 0, n)}
	for i := 0; i < n; i++ {
		best, bestEnd := 1, st.completion(1)
		for d := 2; d <= ch.Len(); d++ {
			if end := st.completion(d); end < bestEnd {
				best, bestEnd = d, end
			}
		}
		s.Tasks = append(s.Tasks, st.commit(best))
	}
	return s, nil
}

// RoundRobin cycles tasks over the processors in depth order.
type RoundRobin struct{}

// Name implements ChainScheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Schedule implements ChainScheduler.
func (RoundRobin) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	st := newChainState(ch)
	s := &sched.ChainSchedule{Chain: ch, Tasks: make([]sched.ChainTask, 0, n)}
	for i := 0; i < n; i++ {
		s.Tasks = append(s.Tasks, st.commit(i%ch.Len()+1))
	}
	return s, nil
}

// MasterOnly places every task on processor 1 — the T∞ schedule whose
// makespan anchors the backward construction.
type MasterOnly struct{}

// Name implements ChainScheduler.
func (MasterOnly) Name() string { return "master-only" }

// Schedule implements ChainScheduler.
func (MasterOnly) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	st := newChainState(ch)
	s := &sched.ChainSchedule{Chain: ch, Tasks: make([]sched.ChainTask, 0, n)}
	for i := 0; i < n; i++ {
		s.Tasks = append(s.Tasks, st.commit(1))
	}
	return s, nil
}

// SpiderScheduler is a named scheduling policy for spiders.
type SpiderScheduler interface {
	Name() string
	Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error)
}

// spiderState is the forward ASAP/FIFO state for spider heuristics: the
// master's send port plus per-leg chain states.
type spiderState struct {
	sp       platform.Spider
	portFree platform.Time
	legs     []*chainState
}

func newSpiderState(sp platform.Spider) *spiderState {
	st := &spiderState{sp: sp, legs: make([]*chainState, sp.NumLegs())}
	for b, leg := range sp.Legs {
		st.legs[b] = newChainState(leg)
	}
	return st
}

func (st *spiderState) completion(leg, d int) platform.Time {
	lst := st.legs[leg]
	var hop platform.Time
	for k := 1; k <= d; k++ {
		start := max(lst.linkFree[k], hop)
		if k == 1 {
			start = max(start, st.portFree)
		}
		hop = start + lst.ch.Comm(k)
	}
	return max(hop, lst.procFree[d]) + lst.ch.Work(d)
}

func (st *spiderState) commit(leg, d int) sched.SpiderTask {
	lst := st.legs[leg]
	comms := make([]platform.Time, d)
	var hop platform.Time
	for k := 1; k <= d; k++ {
		start := max(lst.linkFree[k], hop)
		if k == 1 {
			start = max(start, st.portFree)
		}
		comms[k-1] = start
		hop = start + lst.ch.Comm(k)
		lst.linkFree[k] = hop
		if k == 1 {
			st.portFree = hop
		}
	}
	begin := max(hop, lst.procFree[d])
	lst.procFree[d] = begin + lst.ch.Work(d)
	return sched.SpiderTask{Leg: leg, ChainTask: sched.ChainTask{Proc: d, Start: begin, Comms: comms}}
}

// SpiderGreedy is earliest-completion-time list scheduling over every
// processor of the spider.
type SpiderGreedy struct{}

// Name implements SpiderScheduler.
func (SpiderGreedy) Name() string { return "forward-greedy" }

// Schedule implements SpiderScheduler.
func (SpiderGreedy) Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	st := newSpiderState(sp)
	s := &sched.SpiderSchedule{Spider: sp, Tasks: make([]sched.SpiderTask, 0, n)}
	for i := 0; i < n; i++ {
		bestLeg, bestProc := 0, 1
		bestEnd := st.completion(0, 1)
		for b, leg := range sp.Legs {
			for d := 1; d <= leg.Len(); d++ {
				if b == 0 && d == 1 {
					continue
				}
				if end := st.completion(b, d); end < bestEnd {
					bestLeg, bestProc, bestEnd = b, d, end
				}
			}
		}
		s.Tasks = append(s.Tasks, st.commit(bestLeg, bestProc))
	}
	return s, nil
}

// SpiderRoundRobin cycles tasks over every processor of the spider in
// (leg, depth) order.
type SpiderRoundRobin struct{}

// Name implements SpiderScheduler.
func (SpiderRoundRobin) Name() string { return "round-robin" }

// Schedule implements SpiderScheduler.
func (SpiderRoundRobin) Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	type dest struct{ leg, proc int }
	var dests []dest
	for b, leg := range sp.Legs {
		for d := 1; d <= leg.Len(); d++ {
			dests = append(dests, dest{b, d})
		}
	}
	st := newSpiderState(sp)
	s := &sched.SpiderSchedule{Spider: sp, Tasks: make([]sched.SpiderTask, 0, n)}
	for i := 0; i < n; i++ {
		dst := dests[i%len(dests)]
		s.Tasks = append(s.Tasks, st.commit(dst.leg, dst.proc))
	}
	return s, nil
}
