package repro

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/spider"
)

// Platform is the uniform surface over every supported topology:
// Chain, Spider, Fork and Tree all implement it (Kind, Hash,
// Throughput, LowerBound, TasksUpperBound, Validate, CheckHorizon).
// Code written against Platform and the Solver obtained via NewSolver
// works unchanged for all four kinds, which is how the scheduling
// service, the tools and the examples stay topology-agnostic.
type Platform = solve.Platform

// Schedule is the uniform surface over produced schedules. The dynamic
// type remains *ChainSchedule (chains) or *SpiderSchedule (spiders,
// forks and trees; tree schedules are expressed on the §8 covering
// spider); type-assert when the concrete task layout is needed, or use
// WriteSchedule for the tagged wire form.
type Schedule = solve.Schedule

// SolverStats is the warm solver's cumulative deadline-search telemetry.
// Chain solvers report their incremental plan's counters through the
// same shape: Probes and CountChecks count FitWithin evaluations (the
// chain analogue of a deadline probe), Constructed the cached backward
// placements.
type SolverStats = spider.ProbeStats

// SolveTrace accumulates per-phase wall time along the solve path. A
// nil *SolveTrace is the disabled state: every hook is nil-safe and
// costs one pointer compare. Attach one to a Solver with SetTrace and
// read it back with Snapshot; see package repro/internal/obs for the
// phase model.
type SolveTrace = obs.SolveTrace

// Phase identifies one solve-path phase in a SolveTrace.
type Phase = obs.Phase

// PhaseSnapshot is a point-in-time copy of a SolveTrace.
type PhaseSnapshot = obs.PhaseSnapshot

// Phase constants, re-exported from repro/internal/obs.
const (
	PhaseConstruct = obs.PhaseConstruct
	PhaseDedup     = obs.PhaseDedup
	PhaseMerge     = obs.PhaseMerge
	PhasePack      = obs.PhasePack
	PhaseExtract   = obs.PhaseExtract
)

// Solver answers repeated scheduling queries on one platform, reusing
// warmed state across calls: the backward chain constructions, and for
// trees the §8 spider cover, are paid once and amortised over every
// query that follows (MinMakespan, MaxTasks, ScheduleWithin). Stats
// and SetTrace expose its telemetry; the cancellation and plan-cache
// methods are what the scheduling service drives. Obtain one with
// NewSolver. A Solver is not safe for concurrent use; independent
// Solvers are.
type Solver = solve.Solver

// NewSolver builds the warmed solver for the platform: the incremental
// chain engine for chains, the memoized §7 solver for spiders and forks
// (a fork solves as its spider form), and the cover-caching tree solver
// for trees. Every error is prefixed with the platform kind.
func NewSolver(p Platform) (Solver, error) { return solve.New(p) }

// WriteSchedule encodes any Schedule to w as a tagged JSON document
// (the msched/msverify wire format).
func WriteSchedule(w io.Writer, s Schedule) error {
	switch v := s.(type) {
	case *ChainSchedule:
		return sched.WriteChainSchedule(w, v)
	case *SpiderSchedule:
		return sched.WriteSpiderSchedule(w, v)
	default:
		return fmt.Errorf("repro: unsupported schedule type %T", s)
	}
}
