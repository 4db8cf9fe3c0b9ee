// Package repro is an open-source reproduction of Pierre-François Dutot,
// "Master-slave Tasking on Heterogeneous Processors" (IPPS 2003): optimal
// scheduling of n identical independent tasks from a master across
// heterogeneous processor chains and spider graphs, under one-port
// communication with communication/computation overlap.
//
// The public API is built around two interfaces: Platform — the
// uniform surface Chain, Spider, Fork and Tree all implement (Kind,
// Hash, Throughput, LowerBound, Validate) — and Solver, a warmed
// per-platform engine obtained via NewSolver that answers MinMakespan,
// MaxTasks and ScheduleWithin queries, amortising the expensive
// backward constructions (and, for trees, the §8 spider cover) across
// calls. One code path serves all four topologies; see ExamplePlatform.
//
// The historical per-topology functions remain as thin wrappers over
// the same engines:
//
//   - ScheduleChain: the O(n·p²) backward construction of §3 (Fig. 3),
//     makespan-optimal on chains (Theorem 1);
//   - ScheduleChainWithin: the deadline variant of §7 that maximises the
//     number of tasks completed by a time limit;
//   - ScheduleSpider / SpiderMinMakespan: the §7 algorithm for spider
//     graphs, optimal by Theorem 3, built on the fork-graph machinery of
//     Beaumont et al. recalled in §6;
//   - ForkMinMakespan / ForkMaxTasks: the §6 fork-graph problem, solved
//     as the fork's one-node-leg spider;
//   - ScheduleTree (tree.go): the §8 covering heuristic for general
//     trees;
//   - lower bounds and exact steady-state throughputs from the
//     divisible-load relaxation;
//   - Gantt rendering of any schedule.
//
// Deeper machinery (the exhaustive-search oracle, the discrete-event
// simulator, baseline heuristics, workload scenarios, the experiment
// harness) lives in internal/ packages; cmd/msbench regenerates every
// figure and validation table of the reproduction. The long-lived
// serving layer — an HTTP service answering (platform, n) queries from
// an LRU cache of warmed solvers keyed by PlatformHash, with
// singleflight coalescing — lives in internal/service and runs as
// cmd/msserve.
package repro

import (
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
	"repro/internal/trace"
)

// Core model types, re-exported.
type (
	// Time is an instant or duration in integral task quantums.
	Time = platform.Time
	// Node is a processor with its incoming link: latency Comm, work Work.
	Node = platform.Node
	// Chain is a line of processors fed by the master (Fig. 1).
	Chain = platform.Chain
	// Spider is a bundle of chains fed by a one-port master (Fig. 5).
	Spider = platform.Spider
	// Fork is a star: every slave one hop from the master (§6).
	Fork = platform.Fork
	// VirtualSlave is a single-task slave from the Fig. 6/Fig. 7
	// transformations.
	VirtualSlave = platform.VirtualSlave

	// ChainTask is one scheduled task on a chain: (P(i), T(i), C(i)).
	ChainTask = sched.ChainTask
	// ChainSchedule is a full schedule on a chain; Verify checks the
	// feasibility conditions of Definition 1.
	ChainSchedule = sched.ChainSchedule
	// SpiderTask is one scheduled task on a spider.
	SpiderTask = sched.SpiderTask
	// SpiderSchedule is a full schedule on a spider, including the
	// master's one-port constraint.
	SpiderSchedule = sched.SpiderSchedule

	// Interval is one resource occupation, for rendering and export.
	Interval = trace.Interval

	// PlatformHash is the canonical platform fingerprint: isomorphic
	// spiders (and their chain/fork equivalent forms) share a hash, so
	// it keys caches of warmed solvers — the scheduling service
	// (internal/service, cmd/msserve) is built on it.
	PlatformHash = platform.Hash
)

// NewChain builds a chain from alternating (c, w) pairs.
func NewChain(cw ...Time) Chain { return platform.NewChain(cw...) }

// NewSpider builds a spider from legs.
func NewSpider(legs ...Chain) Spider { return platform.NewSpider(legs...) }

// NewFork builds a fork from alternating (c, w) pairs.
func NewFork(cw ...Time) Fork { return platform.NewFork(cw...) }

// HashChain returns the canonical fingerprint of the chain (the hash
// of its equivalent one-leg spider).
func HashChain(ch Chain) PlatformHash { return platform.HashChain(ch) }

// HashSpider returns the canonical fingerprint of the spider,
// order-normalised over legs.
func HashSpider(sp Spider) PlatformHash { return platform.HashSpider(sp) }

// HashFork returns the canonical fingerprint of the fork (the hash of
// its spider form).
func HashFork(f Fork) PlatformHash { return platform.HashFork(f) }

// HashTree returns the canonical fingerprint of the tree,
// order-normalised over siblings at every level; a spider-shaped tree
// hashes as the spider it is.
func HashTree(t Tree) PlatformHash { return platform.HashTree(t) }

// ScheduleChain returns a makespan-optimal schedule of n tasks on the
// chain (Theorem 1), starting at time 0.
func ScheduleChain(ch Chain, n int) (*ChainSchedule, error) {
	s, err := core.Schedule(ch, n)
	return s, wrapKindErr("chain", err)
}

// ScheduleChainWithin schedules as many tasks as possible — at most n —
// completing within [0, deadline] (the §7 deadline variant; optimal in
// task count).
func ScheduleChainWithin(ch Chain, n int, deadline Time) (*ChainSchedule, error) {
	s, err := core.ScheduleWithin(ch, n, deadline)
	return s, wrapKindErr("chain", err)
}

// ScheduleSpider returns a makespan-optimal schedule of n tasks on the
// spider (Theorem 3).
func ScheduleSpider(sp Spider, n int) (*SpiderSchedule, error) {
	s, err := spider.Schedule(sp, n)
	return s, wrapKindErr("spider", err)
}

// ScheduleSpiderWithin schedules as many tasks as possible — at most n —
// on the spider within the deadline (Theorem 3).
func ScheduleSpiderWithin(sp Spider, n int, deadline Time) (*SpiderSchedule, error) {
	s, err := spider.ScheduleWithin(sp, n, deadline)
	return s, wrapKindErr("spider", err)
}

// SpiderMinMakespan returns the optimal makespan for n tasks on the
// spider together with a schedule achieving it.
func SpiderMinMakespan(sp Spider, n int) (Time, *SpiderSchedule, error) {
	mk, s, err := spider.MinMakespan(sp, n)
	return mk, s, wrapKindErr("spider", err)
}

// ForkMinMakespan returns the optimal makespan for n tasks on a fork
// graph together with a schedule achieving it (§6, after [2]). It
// solves through the same spider solver as NewSolver(f), so the
// schedule is the one NewSolver(f).MinMakespan returns.
func ForkMinMakespan(f Fork, n int) (Time, *SpiderSchedule, error) {
	s, err := newForkSolver(f)
	if err != nil {
		return 0, nil, err
	}
	mk, sch, err := s.MinMakespan(n)
	return mk, sch, wrapKindErr("fork", err)
}

// ForkMaxTasks returns how many of at most n tasks complete on the fork
// within the deadline.
func ForkMaxTasks(f Fork, n int, deadline Time) (int, error) {
	s, err := newForkSolver(f)
	if err != nil {
		return 0, err
	}
	k, err := s.MaxTasks(n, deadline)
	return k, wrapKindErr("fork", err)
}

// ChainThroughput returns the exact steady-state task rate of the chain
// (the divisible-load relaxation).
func ChainThroughput(ch Chain) (*big.Rat, error) {
	r, err := ch.Throughput()
	return r, wrapKindErr("chain", err)
}

// SpiderThroughput returns the exact steady-state task rate of the
// spider under the master's one-port constraint (the bandwidth-centric
// allocation of [2]).
func SpiderThroughput(sp Spider) (*big.Rat, error) {
	r, err := sp.Throughput()
	return r, wrapKindErr("spider", err)
}

// ChainLowerBound returns a proven lower bound on the optimal makespan
// of n tasks on the chain (steady-state rate plus startup latency).
func ChainLowerBound(ch Chain, n int) (Time, error) {
	lb, err := ch.LowerBound(n)
	return lb, wrapKindErr("chain", err)
}

// SpiderLowerBound is ChainLowerBound for spiders.
func SpiderLowerBound(sp Spider, n int) (Time, error) {
	lb, err := sp.LowerBound(n)
	return lb, wrapKindErr("spider", err)
}

// GanttASCII renders occupation intervals as a terminal Gantt chart;
// scale is time units per character cell.
func GanttASCII(ivs []Interval, scale Time) string {
	return gantt.ASCII(ivs, scale)
}

// GanttSVG renders occupation intervals as a standalone SVG document.
func GanttSVG(ivs []Interval, pxPerUnit float64) string {
	return gantt.SVG(ivs, pxPerUnit)
}

// WriteIntervalsCSV exports intervals as CSV.
func WriteIntervalsCSV(w io.Writer, ivs []Interval) error {
	return trace.WriteCSV(w, ivs)
}
