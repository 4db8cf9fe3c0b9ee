package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/spider"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Name:  "theorem1-chain-optimality",
		Paper: "Theorem 1 (chain algorithm optimality)",
		Run:   func() (*Report, error) { return runTheorem1(3, 3, 4, 60) },
	})
	register(Experiment{
		ID:    "E6",
		Name:  "fork-algorithm-validation",
		Paper: "§6 / [2] (fork-graph algorithm)",
		Run:   func() (*Report, error) { return runForkValidation(3, 4) },
	})
	register(Experiment{
		ID:    "E7",
		Name:  "theorem3-spider-optimality",
		Paper: "Theorems 2-3 (spider algorithm optimality)",
		Run:   func() (*Report, error) { return runTheorem3(2, 3) },
	})
}

// runTheorem1 sweeps every chain of length ≤ maxP with parameters in
// [1, maxVal] and every n ≤ maxN against the exhaustive oracle, plus
// random larger instances, reporting the optimality gap (which
// Theorem 1 says is identically zero).
func runTheorem1(maxVal platform.Time, maxP, maxN, randomTrials int) (*Report, error) {
	tbl := Table{
		Title:  "E4: Theorem 1 — chain algorithm vs exhaustive optimum",
		Note:   "gap = algorithm makespan − optimal makespan, accumulated per instance family.",
		Header: []string{"family", "instances", "max gap", "mean ratio", "infeasible"},
	}
	type agg struct {
		instances, infeasible int
		maxGap                platform.Time
		ratioSum              float64
	}
	runFamily := func(name string, iter func(func(platform.Chain, int) error) error) error {
		var a agg
		err := iter(func(ch platform.Chain, n int) error {
			s, err := core.Schedule(ch, n)
			if err != nil {
				return err
			}
			if err := s.Verify(); err != nil {
				a.infeasible++
				return nil
			}
			_, want, err := opt.BruteChain(ch, n)
			if err != nil {
				return err
			}
			gap := s.Makespan() - want
			if gap > a.maxGap {
				a.maxGap = gap
			}
			a.ratioSum += float64(s.Makespan()) / float64(want)
			a.instances++
			return nil
		})
		if err != nil {
			return err
		}
		tbl.AddRow(name, a.instances, a.maxGap, fmt.Sprintf("%.4f", a.ratioSum/float64(a.instances)), a.infeasible)
		return nil
	}

	for p := 1; p <= maxP; p++ {
		p := p
		name := fmt.Sprintf("exhaustive p=%d, c/w in [1,%d], n in [1,%d]", p, maxVal, maxN)
		err := runFamily(name, func(visit func(platform.Chain, int) error) error {
			var visitErr error
			platform.EnumerateChains(p, maxVal, func(ch platform.Chain) bool {
				for n := 1; n <= maxN; n++ {
					if visitErr = visit(ch, n); visitErr != nil {
						return false
					}
				}
				return true
			})
			return visitErr
		})
		if err != nil {
			return nil, err
		}
	}
	for _, reg := range []platform.Heterogeneity{platform.Uniform, platform.Bimodal} {
		reg := reg
		name := fmt.Sprintf("random %v, p<=3, n<=6, c/w in [1,9]", reg)
		err := runFamily(name, func(visit func(platform.Chain, int) error) error {
			g := platform.MustGenerator(1000+int64(reg), 1, 9, reg)
			for t := 0; t < randomTrials; t++ {
				if err := visit(g.Chain(1+t%3), 1+t%6); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}

// runForkValidation sweeps 2-slave forks exhaustively: the task count
// within deadlines and the min makespan of the §6 greedy — run, as in
// production, by the spider solver on the fork's one-node-leg spider
// form — vs the oracle.
func runForkValidation(maxVal platform.Time, maxN int) (*Report, error) {
	counts := Table{
		Title:  "E6: fork algorithm — max tasks within deadline vs exhaustive optimum",
		Header: []string{"deadline", "instances", "greedy < opt", "greedy > opt(impossible)"},
	}
	for _, deadline := range []platform.Time{2, 4, 6, 9, 13} {
		instances, under, over := 0, 0, 0
		var sweepErr error
		platform.EnumerateChains(2, maxVal, func(ch platform.Chain) bool {
			f := platform.Fork{Slaves: ch.Nodes}
			got, err := spider.MaxTasks(f.Spider(), maxN, deadline)
			if err != nil {
				sweepErr = err
				return false
			}
			want, err := opt.BruteForkMaxTasks(f, maxN, deadline)
			if err != nil {
				sweepErr = err
				return false
			}
			instances++
			if got < want {
				under++
			}
			if got > want {
				over++
			}
			return true
		})
		if sweepErr != nil {
			return nil, sweepErr
		}
		counts.AddRow(deadline, instances, under, over)
	}

	mks := Table{
		Title:  "E6b: fork algorithm — min makespan vs exhaustive optimum",
		Header: []string{"n", "instances", "mismatches"},
	}
	for n := 1; n <= maxN; n++ {
		instances, mismatches := 0, 0
		var sweepErr error
		platform.EnumerateChains(2, maxVal, func(ch platform.Chain) bool {
			f := platform.Fork{Slaves: ch.Nodes}
			mk, _, err := spider.MinMakespan(f.Spider(), n)
			if err != nil {
				sweepErr = err
				return false
			}
			_, want, err := opt.BruteFork(f, n)
			if err != nil {
				sweepErr = err
				return false
			}
			instances++
			if mk != want {
				mismatches++
			}
			return true
		})
		if sweepErr != nil {
			return nil, sweepErr
		}
		mks.AddRow(n, instances, mismatches)
	}
	return &Report{Tables: []Table{counts, mks}}, nil
}

// runTheorem3 validates the spider algorithm against the oracle on a
// grid of two-leg spiders.
func runTheorem3(maxVal platform.Time, maxN int) (*Report, error) {
	var legs []platform.Chain
	platform.EnumerateChains(1, maxVal, func(ch platform.Chain) bool {
		legs = append(legs, ch)
		return true
	})
	legs = append(legs, platform.NewChain(1, 2, 2, 1))

	tasks := Table{
		Title:  "E7: Theorem 3 — spider max tasks within deadline vs exhaustive optimum",
		Header: []string{"deadline", "instances", "mismatches"},
	}
	for _, deadline := range []platform.Time{3, 5, 8} {
		instances, mismatches := 0, 0
		for _, a := range legs {
			for _, b := range legs {
				sp := platform.NewSpider(a.Clone(), b.Clone())
				got, err := spider.MaxTasks(sp, maxN, deadline)
				if err != nil {
					return nil, err
				}
				want, err := opt.BruteSpiderMaxTasks(sp, maxN, deadline)
				if err != nil {
					return nil, err
				}
				instances++
				if got != want {
					mismatches++
				}
			}
		}
		tasks.AddRow(deadline, instances, mismatches)
	}

	mks := Table{
		Title:  "E7b: Theorems 2-3 — spider min makespan vs exhaustive optimum",
		Header: []string{"n", "instances", "mismatches"},
	}
	for n := 1; n <= maxN; n++ {
		instances, mismatches := 0, 0
		for _, a := range legs {
			for _, b := range legs {
				sp := platform.NewSpider(a.Clone(), b.Clone())
				mk, _, err := spider.MinMakespan(sp, n)
				if err != nil {
					return nil, err
				}
				_, want, err := opt.BruteSpider(sp, n)
				if err != nil {
					return nil, err
				}
				instances++
				if mk != want {
					mismatches++
				}
			}
		}
		mks.AddRow(n, instances, mismatches)
	}
	return &Report{Tables: []Table{tasks, mks}}, nil
}
