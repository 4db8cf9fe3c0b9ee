// Benchmarks regenerating the performance-shaped claims of the paper and
// the reproduction's own tables (the experiments registry, listed by
// `msbench -list`). One benchmark (family) per experiment:
//
//	E1  BenchmarkFig2Chain          — the worked example end to end
//	E4  BenchmarkChainVsBrute       — algorithm vs exhaustive oracle cost
//	E5  BenchmarkChainN / ChainP    — O(n·p²): linear in n, quadratic in p
//	E5c BenchmarkSpiderMinMakespan  — Theorem 2 polynomiality
//	E6  BenchmarkForkMinMakespan    — the §6 comparator
//	E8  BenchmarkBaselines          — heuristics vs the optimal algorithm
//	E9  BenchmarkBounds             — steady-state rate and lower bound
//	E10 BenchmarkSimulator          — DES with online policies
//
// Feasibility verification, the other hot path, is covered by
// BenchmarkVerifyChain.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/spider"
	"repro/internal/workload"
)

func BenchmarkFig2Chain(b *testing.B) {
	ch := workload.Fig2Chain()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.Schedule(ch, workload.Fig2TaskCount)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkChainN(b *testing.B) {
	// E5a: fixed p, growing n — expect ns/op to grow linearly.
	g := platform.MustGenerator(1, 1, 9, platform.Uniform)
	ch := g.Chain(16)
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Schedule(ch, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainP(b *testing.B) {
	// E5b: fixed n, growing p — expect ns/op to grow quadratically.
	g := platform.MustGenerator(2, 1, 9, platform.Uniform)
	for _, p := range []int{8, 32, 128} {
		ch := g.Chain(p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Schedule(ch, 512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainVsBrute(b *testing.B) {
	// E4: the polynomial algorithm against the exponential oracle on the
	// same instance (p=3, n=6) — the gap in ns/op is the point.
	g := platform.MustGenerator(3, 1, 9, platform.Uniform)
	ch := g.Chain(3)
	b.Run("algorithm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Schedule(ch, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := opt.BruteChain(ch, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkForkMinMakespan(b *testing.B) {
	// E6: the fork comparator across sizes.
	g := platform.MustGenerator(4, 1, 9, platform.Bimodal)
	for _, slaves := range []int{4, 16} {
		f := g.Fork(slaves)
		for _, n := range []int{32, 128} {
			b.Run(fmt.Sprintf("slaves=%d/n=%d", slaves, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := repro.NewSolver(f)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := s.MinMakespan(n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSpiderMinMakespan(b *testing.B) {
	// E5c/E7: Theorem 2 polynomiality of the spider algorithm, via the
	// memoized solver (one backward construction per leg, amortised over
	// the deadline binary search).
	g := platform.MustGenerator(5, 1, 9, platform.Uniform)
	sp := g.Spider(4, 3)
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := spider.MinMakespan(sp, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaselines(b *testing.B) {
	// E8: heuristic scheduling cost on the instances of the comparison
	// table (the quality comparison itself is experiment E8).
	g := platform.MustGenerator(6, 1, 12, platform.Bimodal)
	ch := g.Chain(6)
	schedulers := []baseline.ChainScheduler{
		baseline.ForwardGreedy{}, baseline.RoundRobin{}, baseline.MasterOnly{},
	}
	for _, sc := range schedulers {
		b.Run(sc.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Schedule(ch, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("optimal-backward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Schedule(ch, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBounds(b *testing.B) {
	// E9: exact rational steady-state rate and the induced lower bound.
	ch := workload.LayeredChain(5, 2, 24)
	b.Run("chain-rate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.Throughput(); err != nil {
				b.Fatal(err)
			}
		}
	})
	sp := workload.VolunteerSpider()
	b.Run("spider-rate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sp.Throughput(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chain-lower-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.LowerBound(320); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSimulator(b *testing.B) {
	// E10: DES throughput under online policies.
	sp := workload.VolunteerSpider()
	for _, pol := range []func() sim.Policy{
		func() sim.Policy { return sim.NewPull(1) },
		func() sim.Policy { return sim.NewPull(4) },
		func() sim.Policy { return sim.NewRandomPush(7) },
	} {
		name := pol().Name()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sp, 200, pol()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyChain(b *testing.B) {
	g := platform.MustGenerator(8, 1, 9, platform.Uniform)
	ch := g.Chain(16)
	s, err := core.Schedule(ch, 2048)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
