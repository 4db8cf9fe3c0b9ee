// Package solve is the one mapping from a platform kind to the engine
// that answers it. The public facade (repro.NewSolver) and the
// scheduling service (internal/service) both build their solvers with
// New, so every entry point answers a platform with the same engine and
// the same errors:
//
//   - a chain with core.Incremental, the §3 backward construction built
//     once and answered by shift and binary search;
//   - a spider with spider.Solver, the §7 algorithm;
//   - a fork with spider.Solver on its spider form, whose one-node legs
//     are the Fig. 6 expansion of its slaves (§6);
//   - a tree with tree.Solver, the §8 spider cover and its spider solver.
package solve

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Platform is the uniform surface over every supported topology:
// Chain, Spider, Fork and Tree all implement it.
type Platform interface {
	// Kind names the topology: "chain", "spider", "fork" or "tree".
	Kind() string
	// Hash returns the canonical fingerprint: isomorphic platforms
	// (leg- or sibling-permuted; a chain and its one-leg spider; a fork
	// and its spider form; a spider-shaped tree and that spider) share
	// it, so it keys caches of warmed solvers.
	Hash() platform.Hash
	// Throughput returns the exact steady-state task rate from the
	// divisible-load relaxation.
	Throughput() (*big.Rat, error)
	// LowerBound returns a proven lower bound on the optimal makespan
	// of n tasks.
	LowerBound(n int) (platform.Time, error)
	// TasksUpperBound returns a proven upper bound on how many of at
	// most n tasks complete within the deadline.
	TasksUpperBound(n int, deadline platform.Time) (int, error)
	// SteadyState returns the steady-state rate and the fastest
	// single-task completion that LowerBound and TasksUpperBound derive
	// their bounds from (platform.SteadyStateBound,
	// platform.SteadyStateTasks).
	SteadyState() (*big.Rat, platform.Time, error)
	// Validate checks the platform is non-empty with admissible
	// parameters.
	Validate() error
	// CheckHorizon rejects platforms whose n-task arithmetic would
	// overflow the integral time range; every untrusted-input boundary
	// (cmd tools, the scheduling service) calls it before solving.
	CheckHorizon(n int) error
}

// Compile-time proof that every topology implements Platform.
var (
	_ Platform = platform.Chain{}
	_ Platform = platform.Spider{}
	_ Platform = platform.Fork{}
	_ Platform = platform.Tree{}
)

// Schedule is the uniform surface over produced schedules. The dynamic
// type is *sched.ChainSchedule for chains and *sched.SpiderSchedule for
// spiders, forks and trees (a fork's is expressed on its spider form, a
// tree's on its §8 covering spider).
type Schedule interface {
	// Len returns the number of scheduled tasks.
	Len() int
	// Makespan returns the completion time of the last task.
	Makespan() platform.Time
	// Verify checks the feasibility conditions of Definition 1.
	Verify() error
	// Intervals returns the resource occupations, for rendering/export.
	Intervals() []trace.Interval
	// String renders the schedule as text.
	String() string
}

// Solver answers repeated scheduling queries on one platform, reusing
// warmed state across calls: the backward chain constructions, and for
// trees the §8 spider cover, are paid once and amortised over every
// query that follows. Every error names the platform kind at its front,
// except a cancellation, which passes through as the engine reports it:
// errors.Is finds the context error, and errors.As a *core.PartialError
// when the search had a bound. A Solver is not safe for concurrent use;
// independent Solvers are.
type Solver interface {
	// Platform returns the platform the solver was built for.
	Platform() Platform
	// MinMakespan returns the minimal makespan of exactly n tasks
	// together with a schedule achieving it (for trees: the covering
	// heuristic's makespan, exact when the tree is a spider).
	MinMakespan(n int) (platform.Time, Schedule, error)
	// MaxTasks returns how many of at most n tasks complete within the
	// deadline.
	MaxTasks(n int, deadline platform.Time) (int, error)
	// ScheduleWithin schedules as many tasks as possible, at most n,
	// completing within the deadline.
	ScheduleWithin(n int, deadline platform.Time) (Schedule, error)
	// Stats returns the cumulative probe telemetry. Chains map their
	// incremental plan's counters onto the shape: FitWithin evaluations
	// are the chain analogue of probes, the cached backward placements
	// the paid construction work.
	Stats() spider.ProbeStats
	// SetTrace attaches (or, with nil, detaches) a phase trace the
	// solve path reports wall time into. Hooks are nil-safe: a solver
	// without a trace pays one pointer compare per hook. Safe to call
	// between queries only.
	SetTrace(t *obs.SolveTrace)
	// SetCancel attaches (or, with nil, detaches) the cooperative
	// cancellation checkpoint the solve loops poll. Safe to call
	// between queries only.
	SetCancel(c *obs.CancelCheck)
	// ExportPlans returns the constructed leg plans keyed by
	// platform.LegKey, the state worth spilling to a plan cache.
	ExportPlans() []spider.PlanExport
	// Rehydrate seeds the empty leg plans from lookup before first use.
	Rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult
}

// New builds the warmed solver for the platform.
func New(p Platform) (Solver, error) {
	switch v := p.(type) {
	case platform.Chain:
		inc, err := core.NewIncremental(v)
		if err != nil {
			return nil, kindErr("chain", err)
		}
		return &chainSolver{inc: inc}, nil
	case platform.Spider:
		s, err := spider.NewSolver(v)
		if err != nil {
			return nil, kindErr("spider", err)
		}
		return &spiderSolver{spiderEngine: s, p: v, kind: "spider"}, nil
	case platform.Fork:
		if err := v.Validate(); err != nil {
			return nil, kindErr("fork", err)
		}
		s, err := spider.NewSolver(v.Spider())
		if err != nil {
			return nil, kindErr("fork", err)
		}
		return &spiderSolver{spiderEngine: s, p: v, kind: "fork"}, nil
	case platform.Tree:
		s, err := tree.NewSolver(v)
		if err != nil {
			return nil, kindErr("tree", err)
		}
		return &spiderSolver{spiderEngine: s, p: v, kind: "tree"}, nil
	default:
		return nil, fmt.Errorf("repro: unsupported platform type %T", p)
	}
}

// kindErr prefixes an error with the platform kind, exactly once:
// errors already carrying the prefix pass through untouched, and so do
// cancellations, which report the caller's context, not the platform.
func kindErr(kind string, err error) error {
	if err == nil || strings.HasPrefix(err.Error(), kind+": ") ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%s: %w", kind, err)
}

// chainSolver answers chain queries from one warmed core.Incremental:
// the single horizon-0 backward construction answers every (n,
// deadline) query by shift and binary search.
type chainSolver struct {
	inc *core.Incremental
}

func (s *chainSolver) Platform() Platform { return s.inc.Chain() }

func (s *chainSolver) MinMakespan(n int) (platform.Time, Schedule, error) {
	if n < 1 {
		return 0, nil, fmt.Errorf("chain: task count %d is not positive", n)
	}
	sch, err := s.inc.Schedule(n)
	if err != nil {
		return 0, nil, kindErr("chain", err)
	}
	return sch.Makespan(), sch, nil
}

func (s *chainSolver) MaxTasks(n int, deadline platform.Time) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("chain: negative task count %d", n)
	}
	if deadline < 0 {
		return 0, fmt.Errorf("chain: negative deadline %d", deadline)
	}
	return s.inc.FitWithin(n, deadline), nil
}

func (s *chainSolver) ScheduleWithin(n int, deadline platform.Time) (Schedule, error) {
	sch, err := s.inc.ScheduleWithin(n, deadline)
	if err != nil {
		return nil, kindErr("chain", err)
	}
	return sch, nil
}

func (s *chainSolver) Stats() spider.ProbeStats {
	st := s.inc.Stats()
	return spider.ProbeStats{
		Solves:      int(st.Solves),
		Probes:      int(st.Fits),
		CountChecks: int(st.Fits),
		Constructed: st.Placed,
	}
}

func (s *chainSolver) SetTrace(t *obs.SolveTrace)   { s.inc.SetTrace(t) }
func (s *chainSolver) SetCancel(c *obs.CancelCheck) { s.inc.SetCancel(c) }

// ExportPlans treats the chain as the one-leg platform it is: its plan
// spills under the leg's own key, so a spider containing this chain as
// a leg shares the spilled construction (and vice versa).
func (s *chainSolver) ExportPlans() []spider.PlanExport {
	if s.inc.Len() == 0 {
		return nil
	}
	return []spider.PlanExport{{
		Key:      platform.LegKey(s.inc.Chain()),
		Backward: s.inc.ExportBackward(),
	}}
}

func (s *chainSolver) Rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult {
	res := spider.RehydrateResult{Plans: 1}
	if s.inc.Len() > 0 {
		res.Hydrated = 1
		return res
	}
	tasks := lookup(platform.LegKey(s.inc.Chain()))
	if len(tasks) == 0 {
		return res
	}
	if err := s.inc.ImportBackward(tasks); err != nil {
		res.Failed, res.Err = 1, err
		return res
	}
	res.Hydrated = 1
	return res
}

// spiderEngine is the query surface spider.Solver and tree.Solver
// share: both express their schedules on a spider (a tree's is its
// cover), so one wrapper serves spiders, forks and trees.
type spiderEngine interface {
	MinMakespan(n int) (platform.Time, *sched.SpiderSchedule, error)
	MaxTasks(n int, deadline platform.Time) (int, error)
	ScheduleWithin(n int, deadline platform.Time) (*sched.SpiderSchedule, error)
	Stats() spider.ProbeStats
	SetTrace(t *obs.SolveTrace)
	SetCancel(c *obs.CancelCheck)
	ExportPlans() []spider.PlanExport
	Rehydrate(lookup func(key string) []sched.ChainTask) spider.RehydrateResult
}

// spiderSolver answers spider, fork and tree queries; kind is the
// error prefix. The three query methods below shadow the embedded
// engine's to return Schedule and prefix errors; telemetry, trace,
// cancellation and the plan-cache methods are the engine's own.
type spiderSolver struct {
	spiderEngine
	p    Platform
	kind string
}

func (s *spiderSolver) Platform() Platform { return s.p }

func (s *spiderSolver) MinMakespan(n int) (platform.Time, Schedule, error) {
	mk, sch, err := s.spiderEngine.MinMakespan(n)
	if err != nil {
		return 0, nil, kindErr(s.kind, err)
	}
	return mk, sch, nil
}

func (s *spiderSolver) MaxTasks(n int, deadline platform.Time) (int, error) {
	k, err := s.spiderEngine.MaxTasks(n, deadline)
	return k, kindErr(s.kind, err)
}

func (s *spiderSolver) ScheduleWithin(n int, deadline platform.Time) (Schedule, error) {
	sch, err := s.spiderEngine.ScheduleWithin(n, deadline)
	if err != nil {
		return nil, kindErr(s.kind, err)
	}
	return sch, nil
}
