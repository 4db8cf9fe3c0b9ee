// Package repro is an open-source reproduction of Pierre-François Dutot,
// "Master-slave Tasking on Heterogeneous Processors" (IPPS 2003): optimal
// scheduling of n identical independent tasks from a master across
// heterogeneous processor chains and spider graphs, under one-port
// communication with communication/computation overlap.
//
// The public API is built around two interfaces: Platform, the
// uniform surface Chain, Spider, Fork and Tree all implement (Kind,
// Hash, Throughput, LowerBound, Validate, ...), and Solver, a warmed
// per-platform engine obtained via NewSolver that answers MinMakespan,
// MaxTasks and ScheduleWithin queries, amortising the expensive
// backward constructions (and, for trees, the §8 spider cover) across
// calls. One code path serves all four topologies (see
// ExamplePlatform), and it is the one the scheduling service answers
// with:
//
//   - chains: the O(n·p²) backward construction of §3 (Fig. 3),
//     makespan-optimal (Theorem 1), and its §7 deadline variant, which
//     maximises the number of tasks completed by a time limit;
//   - spiders: the §7 algorithm, optimal by Theorem 3, built on the
//     fork-graph machinery of Beaumont et al. recalled in §6;
//   - forks: the §6 problem, solved as the fork's one-node-leg spider;
//   - trees: the §8 covering heuristic, exact on spider-shaped trees.
//
// Platform also carries the divisible-load lower bounds and exact
// steady-state throughputs; GanttASCII, GanttSVG and WriteIntervalsCSV
// render any schedule, and WriteSchedule writes its wire form.
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

	"repro/internal/gantt"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tree"
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
	// Tree is a general rooted tree of processors, the paper's §8
	// future work, supported through the spider-covering heuristic.
	Tree = tree.Tree
	// TreeNode is one processor of a Tree.
	TreeNode = tree.Node

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
