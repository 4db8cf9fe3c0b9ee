package service

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/tree"
)

// This file is the service's whole knowledge of platform kinds. The
// engine behind a cache entry comes from solve.New, the one kind →
// engine mapping, shared with the public facade; the generic machinery
// in service.go (LRU, singleflight coalescing, the per-entry memo,
// worker slots, counters) never mentions a topology. What stays here is
// the wire-side normalisation and the remap of schedules onto the
// requester's numbering.

// solverForm normalises a decoded platform into the form its solver is
// built on, and returns that form's literal digest and size (the
// cold-cost proxy). A fork becomes its spider form, so a fork and that
// spider share one warmed solver and, digesting alike, coalesce. The
// literal digest fingerprints the platform as the requester numbered
// it, NOT order-normalised (see Service.parse).
func solverForm(dec platform.Decoded) (p solve.Platform, lit platform.Hash, size int) {
	switch dec.Kind {
	case "chain":
		return *dec.Chain, platform.LiteralChain(*dec.Chain), 1
	case "spider":
		return *dec.Spider, platform.LiteralSpider(*dec.Spider), dec.Spider.NumLegs()
	case "tree":
		return *dec.Tree, platform.LiteralTree(*dec.Tree), dec.Tree.NumProcs()
	default:
		sp := dec.Fork.Spider()
		return sp, platform.LiteralSpider(sp), sp.NumLegs()
	}
}

// answer runs the query against an entry's warmed solver and remaps a
// returned schedule onto the requester's numbering.
func answer(s solve.Solver, q *query) (*solved, error) {
	n, dl := q.req.N, q.req.Deadline
	sol := &solved{}
	var sch solve.Schedule
	var err error
	switch {
	case q.req.Op == OpMinMakespan:
		sol.makespan, sch, err = s.MinMakespan(n)
	case q.req.Op == OpMaxTasks && !q.req.IncludeSchedule:
		if sol.tasks, err = s.MaxTasks(n, dl); err != nil {
			return nil, err
		}
		return sol, nil
	default:
		// schedule_within, or max_tasks with a schedule: one solve
		// serves both, since the schedule's length IS the count.
		sch, err = s.ScheduleWithin(n, dl)
		if err == nil && q.req.Op == OpScheduleWithin {
			sol.makespan = sch.Makespan()
		}
	}
	if err != nil {
		return nil, err
	}
	sol.tasks = sch.Len()
	if !q.req.IncludeSchedule {
		return sol, nil
	}
	sol.sched = sch
	if sp, ok := sch.(*sched.SpiderSchedule); ok {
		if err := q.remap(sp, s.Platform()); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// remap rewrites a spider-expressed schedule from the cached solver's
// platform (first-seen numbering) onto the requester's. Spiders and
// fork spider forms match legs directly (remapLegs). A tree schedule
// lives on the cached tree's cover spider; an isomorphic
// (sibling-permuted) tree shares the cache entry via platform.HashTree,
// and the cover's canonical tie-breaks guarantee both covers carry the
// same multiset of legs, so the same leg matching maps it onto the
// requester's cover, and a schedule feasible on one cover is feasible
// on the isomorphic requester's tree verbatim.
func (q *query) remap(sch *sched.SpiderSchedule, cached solve.Platform) error {
	t, ok := q.p.(platform.Tree)
	if !ok {
		return remapLegs(sch, cached.(platform.Spider), q.p.(platform.Spider))
	}
	// The overwhelmingly common case is the same client repeating its
	// own tree: the schedule is already on that tree's cover, and the
	// O(nodes) equality walk is far cheaper than re-running the cover's
	// per-path rate computations.
	if t.Equal(cached.(platform.Tree)) {
		return nil
	}
	cov, err := tree.SpiderCover(t)
	if err != nil {
		// The tree validated at parse time; a cover failure here is
		// the service's bug, not the client's.
		return fmt.Errorf("%w: covering requested tree: %v", ErrInternal, err)
	}
	return remapLegs(sch, sch.Spider, cov.Spider)
}
