package repro

import (
	"fmt"
	"io"
	"math/big"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spider"
	"repro/internal/tree"
)

// Platform is the uniform surface over every supported topology —
// Chain, Spider, Fork and Tree all implement it. Code written against
// Platform (and the Solver obtained via NewSolver) works unchanged for
// all four kinds, which is how the scheduling service, the tools and
// the examples stay topology-agnostic; new topologies plug in by
// implementing this interface and registering a solver factory.
type Platform interface {
	// Kind names the topology: "chain", "spider", "fork" or "tree".
	Kind() string
	// Hash returns the canonical fingerprint: isomorphic platforms
	// (leg- or sibling-permuted; a chain and its one-leg spider; a fork
	// and its spider form; a spider-shaped tree and that spider) share
	// it, so it keys caches of warmed solvers.
	Hash() PlatformHash
	// Throughput returns the exact steady-state task rate from the
	// divisible-load relaxation.
	Throughput() (*big.Rat, error)
	// LowerBound returns a proven lower bound on the optimal makespan
	// of n tasks.
	LowerBound(n int) (Time, error)
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
	_ Platform = Chain{}
	_ Platform = Spider{}
	_ Platform = Fork{}
	_ Platform = Tree{}
)

// Schedule is the uniform surface over produced schedules. The dynamic
// type remains *ChainSchedule (chains) or *SpiderSchedule (spiders,
// forks and trees — tree schedules are expressed on the §8 covering
// spider); type-assert when the concrete task layout is needed, or use
// WriteSchedule for the tagged wire form.
type Schedule interface {
	// Len returns the number of scheduled tasks.
	Len() int
	// Makespan returns the completion time of the last task.
	Makespan() Time
	// Verify checks the feasibility conditions of Definition 1.
	Verify() error
	// Intervals returns the resource occupations, for rendering/export.
	Intervals() []Interval
	// String renders the schedule as text.
	String() string
}

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
// warmed state across calls: the backward chain constructions — and for
// trees the §8 spider cover — are paid once and amortised over every
// query that follows. Obtain one with NewSolver. A Solver is not safe
// for concurrent use; independent Solvers are.
type Solver interface {
	// Platform returns the platform the solver was built for.
	Platform() Platform
	// MinMakespan returns the minimal makespan of exactly n tasks
	// together with a schedule achieving it (for trees: the covering
	// heuristic's makespan, exact when the tree is a spider).
	MinMakespan(n int) (Time, Schedule, error)
	// MaxTasks returns how many of at most n tasks complete within the
	// deadline.
	MaxTasks(n int, deadline Time) (int, error)
	// ScheduleWithin schedules as many tasks as possible — at most n —
	// completing within the deadline.
	ScheduleWithin(n int, deadline Time) (Schedule, error)
	// Stats returns the cumulative probe telemetry.
	Stats() SolverStats
	// SetTrace attaches (or, with nil, detaches) a phase trace the
	// solve path reports wall time into. Hooks are nil-safe: a solver
	// without a trace pays one pointer compare per hook. Safe to call
	// between queries only.
	SetTrace(t *SolveTrace)
}

// NewSolver builds the warmed solver for the platform: the incremental
// chain engine for chains, the memoized §7 solver for spiders and forks
// (a fork solves as its spider form), and the cover-caching tree solver
// for trees. Every error is prefixed with the platform kind.
func NewSolver(p Platform) (Solver, error) {
	switch v := p.(type) {
	case Chain:
		inc, err := core.NewIncremental(v)
		if err != nil {
			return nil, wrapKindErr("chain", err)
		}
		return &chainSolver{ch: v, inc: inc}, nil
	case Spider:
		s, err := spider.NewSolver(v)
		if err != nil {
			return nil, wrapKindErr("spider", err)
		}
		return &spiderSolver{p: v, kind: "spider", s: s}, nil
	case Fork:
		s, err := newForkSolver(v)
		if err != nil {
			return nil, err
		}
		return &spiderSolver{p: v, kind: "fork", s: s}, nil
	case Tree:
		s, err := tree.NewSolver(v)
		if err != nil {
			return nil, wrapKindErr("tree", err)
		}
		return &treeSolver{s: s}, nil
	default:
		return nil, fmt.Errorf("repro: unsupported platform type %T", p)
	}
}

// newForkSolver is the one path every fork query takes: the spider
// solver on the fork's spider form, whose one-node legs are the Fig. 6
// expansion of its slaves.
func newForkSolver(f Fork) (*spider.Solver, error) {
	if err := f.Validate(); err != nil {
		return nil, wrapKindErr("fork", err)
	}
	s, err := spider.NewSolver(f.Spider())
	return s, wrapKindErr("fork", err)
}

// wrapKindErr prefixes an error with the platform kind — every facade
// error names the topology it came from, exactly once: errors already
// carrying the kind prefix pass through untouched.
func wrapKindErr(kind string, err error) error {
	if err == nil {
		return nil
	}
	if strings.HasPrefix(err.Error(), kind+": ") {
		return err
	}
	return fmt.Errorf("%s: %w", kind, err)
}

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
