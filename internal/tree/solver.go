package tree

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
)

// Solver answers repeated scheduling queries on one tree. It caches the
// §8 spider cover and the warmed inner spider solver, so the cover
// extraction (steady-state rates over every downward path) and the
// per-leg backward constructions are paid once and amortised across all
// queries that follow — the same reuse pattern spider.Solver gives the
// scheduling service for spiders.
//
// Every schedule a Solver produces is expressed on the covering spider
// (uncovered processors idle), so it is feasible on the tree as-is and
// exact whenever the tree already is a spider. The Solver is also the
// designated seam for tree-native scheduling: when the recursive
// virtual-slave transformation over subtrees lands (ROADMAP), it
// replaces the cover + inner-solver pair behind this same interface and
// every caller — facade, service, tools — picks it up unchanged.
//
// A Solver is not safe for concurrent use; independent Solvers are.
type Solver struct {
	t     platform.Tree
	cov   *Cover
	inner *spider.Solver

	// coverNs is the wall time of the cover extraction, paid before any
	// trace can be attached; coverFlushed records whether it has been
	// reported into the current trace (see SetTrace).
	coverNs      time.Duration
	coverFlushed bool
}

// NewSolver validates the tree, extracts its spider cover and prepares
// the warmed inner solver.
func NewSolver(t platform.Tree) (*Solver, error) {
	t0 := time.Now()
	cov, err := SpiderCover(t)
	if err != nil {
		return nil, err
	}
	coverNs := time.Since(t0)
	inner, err := spider.NewSolver(cov.Spider)
	if err != nil {
		return nil, fmt.Errorf("tree: cover solver: %w", err)
	}
	return &Solver{t: t, cov: cov, inner: inner, coverNs: coverNs}, nil
}

// SetTrace attaches (or, with nil, detaches) the phase trace the solve
// path reports into, propagating to the inner spider solver. The cover
// extraction ran before any trace could exist; its wall time is flushed
// under obs.PhaseConstruct into the first trace attached. Safe to call
// between queries only.
func (s *Solver) SetTrace(t *obs.SolveTrace) {
	s.inner.SetTrace(t)
	if t != nil && !s.coverFlushed {
		s.coverFlushed = true
		t.Observe(obs.PhaseConstruct, s.coverNs)
	}
}

// SetCancel attaches (or, with nil, detaches) the cooperative
// cancellation checkpoint, propagating to the inner spider solver whose
// loops poll it. The inner solver recovers the checkpoint's unwind at
// its own public boundaries, so this solver's methods see it as an
// ordinary error. Safe to call between queries only.
func (s *Solver) SetCancel(c *obs.CancelCheck) { s.inner.SetCancel(c) }

// Tree returns the platform the solver schedules on.
func (s *Solver) Tree() platform.Tree { return s.t }

// Cover returns the cached spider cover the schedules are expressed on.
func (s *Solver) Cover() *Cover { return s.cov }

// Stats returns the inner spider solver's cumulative probe telemetry.
func (s *Solver) Stats() spider.ProbeStats { return s.inner.Stats() }

// ExportPlans returns the inner solver's distinct constructed leg
// plans, keyed by platform.LegKey of the cover's legs — the tree's
// spillable state. The cover itself is cheap to recompute and is not
// exported.
func (s *Solver) ExportPlans() []spider.PlanExport { return s.inner.ExportPlans() }

// Rehydrate seeds the inner solver's empty leg plans from lookup; see
// spider.Solver.Rehydrate. Because cover legs are keyed like any other
// legs, a tree can rehydrate from plans spilled by a spider sharing the
// same leg shapes, and vice versa.
func (s *Solver) Rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult {
	return s.inner.Rehydrate(lookup)
}

// MinMakespan returns the covering heuristic's makespan for n tasks
// together with a schedule achieving it on the covering spider.
//
// A cancelled search propagates the inner solver's best-so-far bracket
// (*core.PartialError) unmodified through the %w wrap: the bracket
// bounds the cover's makespan, which IS this solver's answer, so it is
// as sound for trees as for spiders. errors.As recovers it.
func (s *Solver) MinMakespan(n int) (platform.Time, *sched.SpiderSchedule, error) {
	mk, sch, err := s.inner.MinMakespan(n)
	if err != nil {
		return 0, nil, coverErr(err)
	}
	return mk, sch, nil
}

// MaxTasks returns how many of at most n tasks the covering heuristic
// completes within the deadline.
func (s *Solver) MaxTasks(n int, deadline platform.Time) (int, error) {
	k, err := s.inner.MaxTasks(n, deadline)
	if err != nil {
		return 0, coverErr(err)
	}
	return k, nil
}

// ScheduleWithin schedules as many tasks as possible — at most n — on
// the covering spider within the deadline.
func (s *Solver) ScheduleWithin(n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	sch, err := s.inner.ScheduleWithin(n, deadline)
	if err != nil {
		return nil, coverErr(err)
	}
	return sch, nil
}

// Schedule schedules n tasks on the tree with the covering heuristic:
// optimal spider scheduling (Theorem 3) restricted to the covered
// paths. The result is the makespan, the schedule expressed on the
// covering spider and the cover itself. The heuristic is exact whenever
// the tree already is a spider (the cover is then the whole tree).
// One-shot callers pay the full solver construction; keep a Solver for
// repeated queries.
func Schedule(t Tree, n int) (platform.Time, *sched.SpiderSchedule, *Cover, error) {
	s, err := NewSolver(t)
	if err != nil {
		return 0, nil, nil, err
	}
	if n == 0 {
		return 0, &sched.SpiderSchedule{Spider: s.cov.Spider}, s.cov, nil
	}
	mk, sch, err := s.MinMakespan(n)
	if err != nil {
		return 0, nil, nil, err
	}
	return mk, sch, s.cov, nil
}

// coverErr places an inner spider error in the tree's context.
// Cancellations and deadline errors, *core.PartialError brackets
// included, pass through unchanged, as the other engines return them.
func coverErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("tree: scheduling cover: %w", err)
}
