package experiments

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/spider"
)

func init() {
	register(Experiment{
		ID:    "E6c",
		Name:  "cold-construction",
		Paper: "§3/§7 cold-path construction: leg dedup + flat hull kernel vs per-leg plans",
		Run:   runColdConstruction,
	})
}

// dupHeavySpider is the E6 duplicate-heavy regime: two distinct deep
// leg shapes repeated across the whole platform, interleaved — the
// realistic heterogeneous-fleet shape (a few hardware SKUs, many
// instances) where isomorphic-leg dedup collapses the construction to
// O(distinct) backward sequences.
func dupHeavySpider(legs int) platform.Spider {
	g := platform.MustGenerator(606, 1, 30, platform.Bimodal)
	shapes := [2]platform.Chain{g.Chain(3), g.Chain(3)}
	ls := make([]platform.Chain, legs)
	for i := range ls {
		ls[i] = shapes[i%2]
	}
	return platform.NewSpider(ls...)
}

// distinctSpider is the E6 all-distinct regime: every leg has a unique
// (c, w) first node, so dedup finds nothing to share and the measured
// win is the flat hull kernel alone.
func distinctSpider(legs int) platform.Spider {
	g := platform.MustGenerator(607, 1, 30, platform.Bimodal)
	ls := make([]platform.Chain, legs)
	for i := range ls {
		ch := g.Chain(1 + i%3)
		ch.Nodes[0].Comm = platform.Time(1 + i/30)
		ch.Nodes[0].Work = platform.Time(1 + i%30)
		ls[i] = ch
	}
	return platform.NewSpider(ls...)
}

// coldRun is one cold MinMakespan — construction included, which is
// the point — on fresh solvers with or without leg dedup: the best of
// three timings, the makespan, and the solver's deterministic work
// counters (leg plans owned, backward placements constructed).
type coldRun struct {
	best        time.Duration
	mk          platform.Time
	plans       int
	constructed int64
}

func timeColdSolve(sp platform.Spider, n int, dedup bool) (coldRun, error) {
	const reps = 3
	run := coldRun{best: time.Duration(1<<63 - 1)}
	for r := 0; r < reps; r++ {
		s, err := newColdSolver(sp, dedup)
		if err != nil {
			return coldRun{}, err
		}
		start := time.Now()
		m, _, err := s.MinMakespan(n)
		if err != nil {
			return coldRun{}, err
		}
		if d := time.Since(start); d < run.best {
			run.best = d
		}
		run.mk, run.plans, run.constructed = m, s.DistinctLegPlans(), s.Stats().Constructed
	}
	return run, nil
}

func newColdSolver(sp platform.Spider, dedup bool) (*spider.Solver, error) {
	s, err := spider.NewSolver(sp)
	if err != nil {
		return nil, err
	}
	s.SetLegDedup(dedup)
	return s, nil
}

// runColdConstruction is the E6 ablation: cold min-makespan solves with
// and without isomorphic-leg dedup, on duplicate-heavy and all-distinct
// platforms, with schedule identity required; plus the warm per-probe
// cost of the same solver as the yardstick the ROADMAP's cold-path goal
// is stated against. Hard asserts pin the claims on work counters, never
// on wall-clock ratios a loaded runner can flip: the dedup solver owns
// exactly the distinct leg plans and the per-leg solver one plan per
// leg, each plan costs both the same placements (so dedup constructs
// legs/distinct times less), and the warm walk constructs nothing. The
// timings are reported in the table only.
//
// Note the ablation understates the PR's end-to-end win: the no-dedup
// baseline here already runs the flat hull kernel, so the speedup
// column isolates dedup alone. Against the pre-flat-kernel per-leg
// cold path the combined effect on this cell measures ~3x (see the
// README's cold-path table).
func runColdConstruction() (*Report, error) {
	tbl := Table{
		Title: "E6c: cold-path construction — leg dedup + flat kernel vs per-leg plans",
		Note: "cold min-makespan incl. plan construction (Bimodal 1..30, n=512); identical\n" +
			"schedules required, so the speedup is pure construction mechanics",
		Header: []string{"regime", "legs", "n", "distinct", "dedup", "no-dedup", "speedup", "warm walk"},
	}
	const n = 512
	for _, regime := range []struct {
		name     string
		build    func(int) platform.Spider
		distinct func(legs int) int
	}{
		{"dup-heavy", dupHeavySpider, func(int) int { return 2 }},
		{"distinct", distinctSpider, func(legs int) int { return legs }},
	} {
		for _, legs := range []int{256, 1024} {
			sp := regime.build(legs)
			distinct := regime.distinct(legs)
			cold, err := timeColdSolve(sp, n, true)
			if err != nil {
				return nil, err
			}
			plain, err := timeColdSolve(sp, n, false)
			if err != nil {
				return nil, err
			}
			mkA := cold.mk
			if mkA != plain.mk {
				return nil, fmt.Errorf("E6c: %s legs=%d: dedup makespan %d, independent plans %d", regime.name, legs, mkA, plain.mk)
			}
			if cold.plans != distinct || plain.plans != legs {
				return nil, fmt.Errorf("E6c: %s legs=%d: cold solvers own %d and %d plans, want %d with dedup and %d without",
					regime.name, legs, cold.plans, plain.plans, distinct, legs)
			}
			if plain.constructed*int64(distinct) != cold.constructed*int64(legs) {
				return nil, fmt.Errorf("E6c: %s legs=%d: dedup constructed %d placements, per-leg plans %d, want a %d/%d ratio",
					regime.name, legs, cold.constructed, plain.constructed, distinct, legs)
			}
			// Schedule identity, not just makespan equality: the dedup'd
			// plans must feed the packing the identical candidate stream.
			sA, err := newColdSolver(sp, true)
			if err != nil {
				return nil, err
			}
			sB, err := newColdSolver(sp, false)
			if err != nil {
				return nil, err
			}
			schedA, err := sA.ScheduleWithin(n, mkA)
			if err != nil {
				return nil, err
			}
			schedB, err := sB.ScheduleWithin(n, mkA)
			if err != nil {
				return nil, err
			}
			if !schedA.Equal(schedB) {
				return nil, fmt.Errorf("E6c: %s legs=%d: dedup schedules diverge", regime.name, legs)
			}

			// The warm yardstick: total cost of the same deadline walk on
			// an already-warm solver (plans grown, decision log recorded).
			warm, warmConstructed, err := timeWarmWalk(sp, n, mkA)
			if err != nil {
				return nil, err
			}
			if warmConstructed != 0 {
				return nil, fmt.Errorf("E6c: %s legs=%d: warm walk constructed %d placements, want 0", regime.name, legs, warmConstructed)
			}

			speedup := float64(plain.best) / float64(cold.best)
			tbl.AddRow(regime.name, legs, n, distinct,
				cold.best.Round(time.Microsecond), plain.best.Round(time.Microsecond),
				fmt.Sprintf("%.2fx", speedup), warm.Round(time.Microsecond))
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}

// timeWarmWalk measures the total cost of a binary-search deadline walk
// bracketing the optimum on a warmed solver — the whole warm search,
// not per probe: the quantity the ROADMAP's "cold within 2x of warm"
// goal compares the cold solve against. It also returns the placements
// the walks constructed, which a warm solver must not need.
func timeWarmWalk(sp platform.Spider, n int, opt platform.Time) (time.Duration, int64, error) {
	const reps = 3
	s, err := spider.NewSolver(sp)
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := s.MinMakespan(n); err != nil {
		return 0, 0, err
	}
	before := s.Stats().Constructed
	walk := probeWalk(opt)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, d := range walk {
			if _, err := s.MaxTasks(n, d); err != nil {
				return 0, 0, err
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, s.Stats().Constructed - before, nil
}
