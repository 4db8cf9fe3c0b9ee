// Package baseline provides the practical scheduling heuristics and the
// relaxation bounds that the paper's optimal algorithms are measured
// against in the reproduction experiments E8 and E9 (`msbench -list`).
//
// The heuristics are forward, online-style policies. Each one is a pick
// rule over one loop that sends the tasks, in emission order, through
// the oracle's ASAP/FIFO model (opt.Forward); chains run as one-leg
// spiders:
//
//   - ForwardGreedy, SpiderGreedy: earliest-completion-time list
//     scheduling — each task goes to the processor that would finish it
//     soonest given the current resource commitments.
//   - RoundRobin, SpiderRoundRobin: tasks cycle over the processors in
//     (leg, depth) order.
//   - MasterOnly: every task on the first processor (the paper's T∞
//     schedule, also the backward algorithm's horizon).
//
// The bounds come from the steady-state / divisible-load relaxation of
// the related work ([2], Bataineh–Robertazzi): the platforms' exact
// rational throughputs and the induced makespan lower bound
// (platform's Throughput and LowerBound); RateString prints a rate.
package baseline

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sched"
)

// ChainScheduler is a named scheduling policy for chains.
type ChainScheduler interface {
	Name() string
	Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error)
}

// SpiderScheduler is a named scheduling policy for spiders.
type SpiderScheduler interface {
	Name() string
	Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error)
}

// pick chooses the node (opt.Forward's depth-first id) of the i-th task.
type pick func(f *opt.Forward, i int) int

// earliest is the node that would finish the next task soonest, ties to
// the first in (leg, depth) order.
func earliest(f *opt.Forward, _ int) int {
	best, bestEnd := 0, f.Completion(0)
	for u := 1; u < f.Len(); u++ {
		if end := f.Completion(u); end < bestEnd {
			best, bestEnd = u, end
		}
	}
	return best
}

// cycle walks the nodes in (leg, depth) order.
func cycle(f *opt.Forward, i int) int { return i % f.Len() }

// first is the first processor of the first leg.
func first(*opt.Forward, int) int { return 0 }

// forward sends n tasks, in emission order, to the nodes pick chooses
// under the ASAP/FIFO model of the spider.
func forward(sp platform.Spider, n int, next pick) (*sched.SpiderSchedule, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("baseline: negative task count %d", n)
	}
	f := opt.NewForward(platform.TreeFromSpider(sp))
	s := &sched.SpiderSchedule{Spider: sp, Tasks: make([]sched.SpiderTask, n)}
	for i := range s.Tasks {
		s.Tasks[i] = f.Task(next(f, i))
	}
	return s, nil
}

// forwardChain runs forward on the chain as a one-leg spider.
func forwardChain(ch platform.Chain, n int, next pick) (*sched.ChainSchedule, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	s, err := forward(platform.NewSpider(ch), n, next)
	if err != nil {
		return nil, err
	}
	out := &sched.ChainSchedule{Chain: ch, Tasks: make([]sched.ChainTask, n)}
	for i, t := range s.Tasks {
		out.Tasks[i] = t.ChainTask
	}
	return out, nil
}

// ForwardGreedy is earliest-completion-time list scheduling.
type ForwardGreedy struct{}

// Name implements ChainScheduler.
func (ForwardGreedy) Name() string { return "forward-greedy" }

// Schedule implements ChainScheduler: every task goes to the processor
// minimising its own completion time, ties to the shallowest processor.
func (ForwardGreedy) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	return forwardChain(ch, n, earliest)
}

// RoundRobin cycles tasks over the processors in depth order.
type RoundRobin struct{}

// Name implements ChainScheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Schedule implements ChainScheduler.
func (RoundRobin) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	return forwardChain(ch, n, cycle)
}

// MasterOnly places every task on processor 1 — the T∞ schedule whose
// makespan anchors the backward construction.
type MasterOnly struct{}

// Name implements ChainScheduler.
func (MasterOnly) Name() string { return "master-only" }

// Schedule implements ChainScheduler.
func (MasterOnly) Schedule(ch platform.Chain, n int) (*sched.ChainSchedule, error) {
	return forwardChain(ch, n, first)
}

// SpiderGreedy is earliest-completion-time list scheduling over every
// processor of the spider.
type SpiderGreedy struct{}

// Name implements SpiderScheduler.
func (SpiderGreedy) Name() string { return "forward-greedy" }

// Schedule implements SpiderScheduler.
func (SpiderGreedy) Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error) {
	return forward(sp, n, earliest)
}

// SpiderRoundRobin cycles tasks over every processor of the spider in
// (leg, depth) order.
type SpiderRoundRobin struct{}

// Name implements SpiderScheduler.
func (SpiderRoundRobin) Name() string { return "round-robin" }

// Schedule implements SpiderScheduler.
func (SpiderRoundRobin) Schedule(sp platform.Spider, n int) (*sched.SpiderSchedule, error) {
	return forward(sp, n, cycle)
}
