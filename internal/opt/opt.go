// Package opt computes exact optima for small instances by exhaustive
// search. It is the oracle that the reproduction uses to validate the
// paper's optimality theorems (Theorem 1 for chains, Theorem 3 for
// spiders) and the fork-graph comparator of §6.
//
// Every oracle enumerates destination sequences under one ASAP/FIFO
// forward model, Forward, whose doc explains why the enumeration is
// exact: chains run as one-leg spiders, spiders and forks as their
// trees. The blow-up restricts the oracle to the small instances used in
// tests and validation experiments.
package opt

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
)

// ForwardChain builds the ASAP/FIFO schedule for the given destination
// sequence on a chain: dests[i] is the 1-based processor of the i-th
// emitted task. It errs on invalid destinations.
func ForwardChain(ch platform.Chain, dests []int) (*sched.ChainSchedule, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	ids := make([]int, len(dests))
	for i, d := range dests {
		if d < 1 || d > ch.Len() {
			return nil, fmt.Errorf("opt: task %d destination %d outside [1,%d]", i+1, d, ch.Len())
		}
		ids[i] = d - 1
	}
	sp := platform.NewSpider(ch)
	return chainOf(replay(spiderForward(sp), sp, ids)), nil
}

// BruteChain returns an optimal schedule and its makespan for n tasks on
// the chain by exhaustive search over the p^n destination sequences.
func BruteChain(ch platform.Chain, n int) (*sched.ChainSchedule, platform.Time, error) {
	if err := ch.Validate(); err != nil {
		return nil, 0, err
	}
	s, mk, err := bruteSpider(platform.NewSpider(ch), n)
	if err != nil {
		return nil, 0, err
	}
	return chainOf(s), mk, nil
}

// BruteChainMaxTasks returns the largest m ≤ limit such that m tasks can
// complete within the deadline.
func BruteChainMaxTasks(ch platform.Chain, limit int, deadline platform.Time) (int, error) {
	if err := ch.Validate(); err != nil {
		return 0, err
	}
	return spiderForward(platform.NewSpider(ch)).maxTasks(limit, deadline), nil
}

// chainOf reads a one-leg spider schedule back as a chain schedule.
func chainOf(s *sched.SpiderSchedule) *sched.ChainSchedule {
	out := &sched.ChainSchedule{Chain: s.Spider.Legs[0], Tasks: make([]sched.ChainTask, len(s.Tasks))}
	for i, t := range s.Tasks {
		out.Tasks[i] = t.ChainTask
	}
	return out
}
