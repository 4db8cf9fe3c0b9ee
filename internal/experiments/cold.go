package experiments

import (
	"fmt"
	"time"

	"repro/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "E6c",
		Name:  "cold-construction",
		Paper: "§3/§7 cold-path construction: leg dedup + flat hull kernel",
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
// (c, w) first node, so dedup finds nothing to share and the solver
// builds one plan per leg.
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

// runColdConstruction is the E6c experiment: cold min-makespan solves
// on duplicate-heavy and all-distinct platforms, beside the warm cost
// of the same deadline walk on a warmed solver. Hard asserts pin the
// work counters, never a wall-clock ratio a loaded runner can flip: the
// solver owns exactly the distinct leg plans, constructs at most n
// placements per plan, and the warm walk constructs nothing. The
// timings are reported in the table only.
func runColdConstruction() (*Report, error) {
	tbl := Table{
		Title: "E6c: cold-path construction — leg dedup + flat kernel",
		Note: "cold min-makespan incl. plan construction (Bimodal 1..30, n=512);\n" +
			"constructed = backward placements built across the distinct plans",
		Header: []string{"regime", "legs", "n", "distinct", "constructed", "cold", "warm walk"},
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
			cold, err := timeColdSolve(sp, n)
			if err != nil {
				return nil, err
			}
			if cold.plans != distinct {
				return nil, fmt.Errorf("E6c: %s legs=%d: cold solver owns %d plans, want %d",
					regime.name, legs, cold.plans, distinct)
			}
			// A plan grows to at most n placements, so a solver sharing
			// one plan per leg shape constructs at most n per shape.
			constructed := cold.stats.Constructed
			if constructed <= 0 || constructed > int64(distinct*n) {
				return nil, fmt.Errorf("E6c: %s legs=%d: constructed %d placements, want 1..%d (n per distinct plan)",
					regime.name, legs, constructed, distinct*n)
			}

			// The warm yardstick: the whole deadline walk, not per probe,
			// on an already-warm solver (plans grown).
			warm, err := timeWarmWalk(sp, n, cold.mk)
			if err != nil {
				return nil, err
			}
			if warm.constructed != 0 {
				return nil, fmt.Errorf("E6c: %s legs=%d: warm walk constructed %d placements, want 0", regime.name, legs, warm.constructed)
			}
			tbl.AddRow(regime.name, legs, n, distinct, constructed,
				cold.best.Round(time.Microsecond), warm.best.Round(time.Microsecond))
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}
