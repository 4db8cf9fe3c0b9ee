package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/spider"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Name:  "baseline-comparison",
		Paper: "motivation: value of optimal scheduling under heterogeneity",
		Run:   runBaselineComparison,
	})
	register(Experiment{
		ID:    "E9",
		Name:  "steady-state-gap",
		Paper: "§1 related work: divisible-load / steady-state relaxation",
		Run:   runSteadyState,
	})
	register(Experiment{
		ID:    "E10",
		Name:  "online-policies",
		Paper: "motivation: SETI@home-style demand-driven operation",
		Run:   runOnlinePolicies,
	})
}

// runBaselineComparison measures heuristic/optimal makespan ratios over
// random chains in each heterogeneity regime. Expected shape: the
// optimal algorithm dominates everywhere; forward-greedy is close on
// homogeneous-ish instances and degrades with heterogeneity; round-robin
// and master-only degrade sharply.
func runBaselineComparison() (*Report, error) {
	schedulers := []baseline.ChainScheduler{
		baseline.ForwardGreedy{},
		baseline.RoundRobin{},
		baseline.MasterOnly{},
	}
	const trials = 40
	tbl := Table{
		Title:  "E8: heuristic makespan / optimal makespan over random chains (p=6, n=60)",
		Note:   fmt.Sprintf("%d instances per regime; ratio 1.0000 means the heuristic found an optimum.", trials),
		Header: []string{"regime", "heuristic", "mean ratio", "max ratio", "optimal found"},
	}
	for _, reg := range []platform.Heterogeneity{
		platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal,
	} {
		g := platform.MustGenerator(4200+int64(reg), 1, 12, reg)
		chains := make([]platform.Chain, trials)
		optimal := make([]platform.Time, trials)
		for t := range chains {
			chains[t] = g.Chain(6)
			s, err := core.Schedule(chains[t], 60)
			if err != nil {
				return nil, err
			}
			optimal[t] = s.Makespan()
		}
		for _, sc := range schedulers {
			var sum, maxRatio float64
			found := 0
			for t, ch := range chains {
				s, err := sc.Schedule(ch, 60)
				if err != nil {
					return nil, err
				}
				r := float64(s.Makespan()) / float64(optimal[t])
				sum += r
				if r > maxRatio {
					maxRatio = r
				}
				if s.Makespan() == optimal[t] {
					found++
				}
			}
			tbl.AddRow(reg, sc.Name(),
				fmt.Sprintf("%.4f", sum/trials),
				fmt.Sprintf("%.4f", maxRatio),
				fmt.Sprintf("%d/%d", found, trials))
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}

// runSteadyState compares the optimal makespan against the steady-state
// (divisible-load) lower bound as n grows: both grow linearly at rate
// 1/throughput and the gap stays bounded (startup transient only).
func runSteadyState() (*Report, error) {
	ch := workload.LayeredChain(5, 2, 24)
	rate, err := ch.Throughput()
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Title: "E9: optimal makespan vs steady-state lower bound on the layered chain",
		Note: fmt.Sprintf("chain %v; steady-state rate %s — expected: gap = makespan − ⌈n/rate⌉ stays O(1) while both grow linearly.",
			ch, baseline.RateString(rate)),
		Header: []string{"n", "optimal makespan", "steady-state LB", "gap", "makespan/n"},
	}
	for _, n := range []int{10, 20, 40, 80, 160, 320} {
		s, err := core.Schedule(ch, n)
		if err != nil {
			return nil, err
		}
		lb, err := ch.LowerBound(n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, s.Makespan(), lb, s.Makespan()-lb,
			fmt.Sprintf("%.3f", float64(s.Makespan())/float64(n)))
	}
	return &Report{Tables: []Table{tbl}}, nil
}

// runOnlinePolicies pits demand-driven and random online policies
// (discrete-event simulated) against the offline optimal schedule on the
// scenario spiders. Expected shape: pull approaches the optimum as
// credits grow (latency hiding); random push trails.
func runOnlinePolicies() (*Report, error) {
	tbl := Table{
		Title:  "E10: online policies (simulated) vs offline optimal makespan",
		Note:   "pull(k) = demand-driven with k outstanding requests per processor.",
		Header: []string{"platform", "n", "policy", "makespan", "ratio vs optimal"},
	}
	scenarios := []struct {
		name string
		sp   platform.Spider
		n    int
	}{
		{"fig5", workload.Fig5Spider(), 40},
		{"volunteer", workload.VolunteerSpider(), 60},
	}
	for _, sc := range scenarios {
		mk, schedule, err := spider.MinMakespan(sc.sp, sc.n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(sc.name, sc.n, "offline optimal", mk, "1.0000")

		policies := []sim.Policy{
			sim.NewGatedFromSpider("optimal replay (gated)", schedule),
			sim.NewPull(1),
			sim.NewPull(2),
			sim.NewPull(4),
			sim.NewRandomPush(7),
		}
		for _, pol := range policies {
			res, err := sim.Run(sc.sp, sc.n, pol)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(sc.name, sc.n, pol.Name(), res.Makespan,
				fmt.Sprintf("%.4f", float64(res.Makespan)/float64(mk)))
		}
	}
	return &Report{Tables: []Table{tbl}}, nil
}
