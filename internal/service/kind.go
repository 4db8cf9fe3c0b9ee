package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
	"repro/internal/tree"
)

// This file is the service's solver-factory registry: one kindHandler
// per wire platform kind, each knowing how to normalise a decoded
// platform into a query and how to construct the warmed backend that
// answers it. The generic machinery in service.go — LRU, singleflight
// coalescing, the per-entry (op, n, deadline) memo, worker slots,
// counters — never mentions a topology: a new platform kind plugs in by
// registering a handler here, and every caching layer works for it
// unchanged. Trees were the first kind to land this way.

// backend is one warmed solver behind a cache entry. answer runs a
// parsed query against it; setTrace attaches the entry's phase trace;
// setCancel attaches (nil detaches) the per-solve cancellation
// checkpoint; probeStats snapshots the solver's cumulative telemetry
// in the shared ProbeStats shape (chains map their incremental
// counters onto it). exportPlans and rehydrate are the plan-cache
// spill/rehydrate seam: every backend's paid state is LegKey-keyed
// backward sequences, whatever the wire kind. Implementations are not
// safe for concurrent use (the entry mutex serialises callers).
type backend interface {
	answer(q *query) (*solved, error)
	setTrace(t *obs.SolveTrace)
	setCancel(c *obs.CancelCheck)
	probeStats() spider.ProbeStats
	exportPlans() []spider.PlanExport
	rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult
}

// kindHandler describes one wire platform kind.
type kindHandler struct {
	// wire is the envelope kind the handler serves ("chain", "spider",
	// "fork", "tree").
	wire string
	// solverKind is the cache-key kind. It matters because a chain and
	// its one-leg spider share a fingerprint by design but are answered
	// by different engines (core.Incremental vs spider.Solver) whose
	// optimal schedules — and wire envelopes — legitimately differ;
	// forks normalise to the spider kind, so a fork and its spider form
	// share one warmed solver. Trees are their own kind: their
	// schedules come from the §8 cover, not from the literal topology.
	solverKind string
	// prepare normalises the decoded platform into the query's
	// prepared form and returns the literal digest the flight key
	// carries: the platform as the requester numbered it, NOT
	// order-normalised (see Service.parse).
	prepare func(q *query, dec platform.Decoded) (literal platform.Hash)
	// construct builds the warmed backend for the query's platform.
	construct func(q *query) (backend, error)
}

// kindRegistry maps wire kinds to their handlers. Mutated only by
// registerKind calls from init, so reads need no lock.
var kindRegistry = map[string]*kindHandler{}

// registerKind installs a handler; double registration of a wire kind
// is a programming error.
func registerKind(h *kindHandler) {
	if _, dup := kindRegistry[h.wire]; dup {
		panic(fmt.Sprintf("service: platform kind %q registered twice", h.wire))
	}
	kindRegistry[h.wire] = h
}

func init() {
	registerKind(&kindHandler{
		wire: "chain", solverKind: "chain",
		prepare: func(q *query, dec platform.Decoded) platform.Hash {
			q.chain, q.size = *dec.Chain, 1
			return platform.LiteralChain(q.chain)
		},
		construct: func(q *query) (backend, error) {
			inc, err := core.NewIncremental(q.chain)
			if err != nil {
				return nil, err
			}
			return &chainBackend{inc: inc}, nil
		},
	})
	registerKind(&kindHandler{
		wire: "spider", solverKind: "spider",
		prepare: func(q *query, dec platform.Decoded) platform.Hash {
			q.sp = *dec.Spider
			q.size = q.sp.NumLegs()
			return platform.LiteralSpider(q.sp)
		},
		construct: constructSpider,
	})
	registerKind(&kindHandler{
		wire: "fork", solverKind: "spider",
		prepare: func(q *query, dec platform.Decoded) platform.Hash {
			// A fork digests as its spider form, so it coalesces with
			// that spider exactly as it shares its cache entry.
			q.sp = dec.Fork.Spider()
			q.size = q.sp.NumLegs()
			return platform.LiteralSpider(q.sp)
		},
		construct: constructSpider,
	})
	registerKind(&kindHandler{
		wire: "tree", solverKind: "tree",
		prepare: func(q *query, dec platform.Decoded) platform.Hash {
			q.tr = *dec.Tree
			q.size = q.tr.NumProcs()
			return platform.LiteralTree(q.tr)
		},
		construct: func(q *query) (backend, error) {
			ts, err := tree.NewSolver(q.tr)
			if err != nil {
				return nil, err
			}
			return &spiderishBackend{s: ts, remap: treeRemap(ts)}, nil
		},
	})
}

func constructSpider(q *query) (backend, error) {
	solver, err := spider.NewSolver(q.sp)
	if err != nil {
		return nil, err
	}
	return &spiderishBackend{s: solver, remap: func(q *query, sch *sched.SpiderSchedule) error {
		return remapLegs(sch, solver.Spider(), q.sp)
	}}, nil
}

// treeRemap rewrites schedules produced on the cached tree's cover
// spider onto the cover of the requester's own tree. An isomorphic
// (sibling-permuted) tree shares the cache entry via platform.HashTree;
// the cover's canonical tie-breaks guarantee both covers carry the same
// multiset of legs, so the leg-matching remap of remapLegs applies —
// and a schedule feasible on one cover is feasible on the isomorphic
// requester's tree verbatim.
func treeRemap(ts *tree.Solver) func(q *query, sch *sched.SpiderSchedule) error {
	return func(q *query, sch *sched.SpiderSchedule) error {
		// The overwhelmingly common case is the same client repeating
		// its own tree: the schedule is already on that tree's cover,
		// and the O(nodes) equality walk is far cheaper than re-running
		// the cover's per-path rate computations.
		if q.tr.Equal(ts.Tree()) {
			return nil
		}
		cov, err := tree.SpiderCover(q.tr)
		if err != nil {
			// The tree validated at parse time; a cover failure here is
			// the service's bug, not the client's.
			return fmt.Errorf("%w: covering requested tree: %v", ErrInternal, err)
		}
		return remapLegs(sch, ts.Cover().Spider, cov.Spider)
	}
}

// chainBackend answers chain queries from a warmed incremental engine.
type chainBackend struct {
	inc *core.Incremental
}

func (b *chainBackend) setTrace(t *obs.SolveTrace)   { b.inc.SetTrace(t) }
func (b *chainBackend) setCancel(c *obs.CancelCheck) { b.inc.SetCancel(c) }

// probeStats maps the incremental plan's counters onto the shared
// shape: FitWithin evaluations are the chain analogue of probes, the
// cached backward placements the paid construction work.
func (b *chainBackend) probeStats() spider.ProbeStats {
	st := b.inc.Stats()
	return spider.ProbeStats{
		Solves:      int(st.Solves),
		Probes:      int(st.Fits),
		CountChecks: int(st.Fits),
		Constructed: st.Placed,
	}
}

// exportPlans treats the chain as the one-leg platform it is: its plan
// spills under the leg's own key, so a spider containing this chain as
// a leg shares the spilled construction (and vice versa).
func (b *chainBackend) exportPlans() []spider.PlanExport {
	if b.inc.Len() == 0 {
		return nil
	}
	return []spider.PlanExport{{
		Key:      platform.LegKey(b.inc.Chain()),
		Backward: b.inc.ExportBackward(),
	}}
}

func (b *chainBackend) rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult {
	res := spider.RehydrateResult{Plans: 1}
	if b.inc.Len() > 0 {
		res.Hydrated = 1
		return res
	}
	tasks := lookup(platform.LegKey(b.inc.Chain()))
	if len(tasks) == 0 {
		return res
	}
	if err := b.inc.ImportBackward(tasks); err != nil {
		res.Failed, res.Err = 1, err
		return res
	}
	res.Hydrated = 1
	return res
}

func (b *chainBackend) answer(q *query) (*solved, error) {
	n, dl, wantSched := q.req.N, q.req.Deadline, q.req.IncludeSchedule
	sol := &solved{}
	switch q.req.Op {
	case OpMinMakespan:
		sch, err := b.inc.Schedule(n)
		if err != nil {
			return nil, err
		}
		sol.tasks, sol.makespan = sch.Len(), sch.Makespan()
		if wantSched {
			sol.chainSched = sch
		}
	case OpMaxTasks:
		if wantSched {
			// One solve serves both: the schedule's length IS the count.
			sch, err := b.inc.ScheduleWithin(n, dl)
			if err != nil {
				return nil, err
			}
			sol.tasks, sol.chainSched = sch.Len(), sch
		} else {
			sol.tasks = b.inc.FitWithin(n, dl)
		}
	case OpScheduleWithin:
		sch, err := b.inc.ScheduleWithin(n, dl)
		if err != nil {
			return nil, err
		}
		sol.tasks, sol.makespan = sch.Len(), sch.Makespan()
		if wantSched {
			sol.chainSched = sch
		}
	}
	return sol, nil
}

// spiderish is the query surface spider.Solver and tree.Solver share;
// any engine producing spider-expressed schedules slots in here.
type spiderish interface {
	MinMakespan(n int) (platform.Time, *sched.SpiderSchedule, error)
	MaxTasks(n int, deadline platform.Time) (int, error)
	ScheduleWithin(n int, deadline platform.Time) (*sched.SpiderSchedule, error)
	SetTrace(t *obs.SolveTrace)
	SetCancel(c *obs.CancelCheck)
	Stats() spider.ProbeStats
	ExportPlans() []spider.PlanExport
	Rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult
}

// spiderishBackend answers queries whose schedules are expressed on a
// spider — the spider/fork solver and the tree cover solver — and
// remaps returned schedules onto the requester's own numbering.
type spiderishBackend struct {
	s     spiderish
	remap func(q *query, sch *sched.SpiderSchedule) error
}

func (b *spiderishBackend) setTrace(t *obs.SolveTrace)    { b.s.SetTrace(t) }
func (b *spiderishBackend) setCancel(c *obs.CancelCheck)  { b.s.SetCancel(c) }
func (b *spiderishBackend) probeStats() spider.ProbeStats { return b.s.Stats() }
func (b *spiderishBackend) exportPlans() []spider.PlanExport {
	return b.s.ExportPlans()
}
func (b *spiderishBackend) rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult {
	return b.s.Rehydrate(lookup)
}

func (b *spiderishBackend) answer(q *query) (*solved, error) {
	n, dl, wantSched := q.req.N, q.req.Deadline, q.req.IncludeSchedule
	sol := &solved{}
	switch q.req.Op {
	case OpMinMakespan:
		mk, sch, err := b.s.MinMakespan(n)
		if err != nil {
			return nil, err
		}
		sol.tasks, sol.makespan = sch.Len(), mk
		if wantSched {
			sol.spiderSched = sch
		}
	case OpMaxTasks:
		if wantSched {
			// One solve serves both: the schedule's length IS the count.
			sch, err := b.s.ScheduleWithin(n, dl)
			if err != nil {
				return nil, err
			}
			sol.tasks, sol.spiderSched = sch.Len(), sch
		} else {
			k, err := b.s.MaxTasks(n, dl)
			if err != nil {
				return nil, err
			}
			sol.tasks = k
		}
	case OpScheduleWithin:
		sch, err := b.s.ScheduleWithin(n, dl)
		if err != nil {
			return nil, err
		}
		sol.tasks, sol.makespan = sch.Len(), sch.Makespan()
		if wantSched {
			sol.spiderSched = sch
		}
	}
	if sol.spiderSched != nil {
		if err := b.remap(q, sol.spiderSched); err != nil {
			return nil, err
		}
	}
	return sol, nil
}
