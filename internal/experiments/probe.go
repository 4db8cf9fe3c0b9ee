package experiments

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/spider"
)

func init() {
	register(Experiment{
		ID:    "E5p",
		Name:  "ceiling-packing",
		Paper: "§6/§7 deadline-search probes: ceiling-bounded merge + packer, cold and warm",
		Run:   runCeilingPacking,
	})
}

// probeLegCounts is the E5p platform family: narrow (4 legs, the E5c
// regime), wide (256) and very wide (1024) spiders from wideSpider.
var probeLegCounts = []int{4, 256, 1024}

// wideSpider draws the wide-platform family: spiders with hundreds of
// short legs under strong heterogeneity (Bimodal, values 1..30), the
// regime where the lower-bound seeding is loose enough that the
// deadline binary search actually probes, and each probe's candidate
// stream is wide enough that the admit-one-candidate inner loop
// dominates.
func wideSpider(legs int) platform.Spider {
	g := platform.MustGenerator(2025, 1, 30, platform.Bimodal)
	return g.Spider(legs, 3)
}

// coldRun is one cold MinMakespan — construction included — on fresh
// solvers: the best of three timings, the makespan, and the last rep's
// leg plans owned and telemetry.
type coldRun struct {
	best  time.Duration
	mk    platform.Time
	plans int
	stats spider.ProbeStats
}

func timeColdSolve(sp platform.Spider, n int) (coldRun, error) {
	const reps = 3
	run := coldRun{best: time.Duration(1<<63 - 1)}
	for r := 0; r < reps; r++ {
		s, err := spider.NewSolver(sp)
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
		run.mk, run.plans, run.stats = m, s.DistinctLegPlans(), s.Stats()
	}
	return run, nil
}

// probeWalk is the warm probe-loop workload: the deadline sequence of a
// binary search bracketing the optimum, replayed against a warmed
// solver. It isolates the per-probe cost — the leg plans are grown, only
// the merge and packing run.
func probeWalk(opt platform.Time) []platform.Time {
	var walk []platform.Time
	lo, hi := max(opt-40, 1), opt+40
	for lo < hi {
		mid := lo + (hi-lo)/2
		walk = append(walk, mid)
		if mid >= opt {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return walk
}

// walkRun is the probe walk replayed on a warmed solver: the best
// walk's time, the probes per walk, and the candidates offered per probe
// and placements constructed over every walk.
type walkRun struct {
	best        time.Duration
	probes      int
	offered     int64
	constructed int64
}

// timeWarmWalk warms a solver with one MinMakespan (plans grown, packer
// pooled), then replays probeWalk(opt) on it, best of five.
func timeWarmWalk(sp platform.Spider, n int, opt platform.Time) (walkRun, error) {
	const reps = 5
	s, err := spider.NewSolver(sp)
	if err != nil {
		return walkRun{}, err
	}
	if _, _, err := s.MinMakespan(n); err != nil {
		return walkRun{}, err
	}
	walk := probeWalk(opt)
	run := walkRun{best: time.Duration(1<<63 - 1), probes: len(walk)}
	before := s.Stats()
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, d := range walk {
			if _, err := s.MaxTasks(n, d); err != nil {
				return walkRun{}, err
			}
		}
		if d := time.Since(start); d < run.best {
			run.best = d
		}
	}
	after := s.Stats()
	run.offered = (after.Offered - before.Offered) / int64(reps*len(walk))
	run.constructed = after.Constructed - before.Constructed
	return run, nil
}

// runCeilingPacking is the E5p experiment: the probe's cost and work on
// cold solves and on the warm probe loop. Hard asserts pin the offer
// counts, never a wall-clock ratio: every packing probe offers at most
// n + legs candidates, however long the legs' runs are.
func runCeilingPacking() (*Report, error) {
	solves := Table{
		Title: "E5p: ceiling packing — cold min-makespan solve",
		Note: "full solve incl. leg-plan construction (Bimodal 1..30, n=512); probes =\n" +
			"feasibility probes, offered = candidates offered over the whole search,\n" +
			"bound = packing probes × (n + legs)",
		Header: []string{"legs", "n", "time", "probes", "pack probes", "offered", "bound"},
	}
	loop := Table{
		Title:  "E5p: warm probe loop — per-probe cost of a deadline walk",
		Note:   "binary-search walk bracketing the optimum on a warmed solver; per probe",
		Header: []string{"legs", "n", "time/probe", "offered/probe", "n + legs"},
	}
	const n = 512
	for _, legs := range probeLegCounts {
		sp := wideSpider(legs)
		cold, err := timeColdSolve(sp, n)
		if err != nil {
			return nil, err
		}
		st := cold.stats
		bound := int64(st.PackProbes) * int64(n+legs)
		if st.Offered > bound {
			return nil, fmt.Errorf("E5p: legs=%d: %d offers over %d packing probes, want ≤ %d (n + legs per probe)",
				legs, st.Offered, st.PackProbes, bound)
		}
		solves.AddRow(legs, n, cold.best.Round(time.Microsecond), st.Probes, st.PackProbes, st.Offered, bound)

		warm, err := timeWarmWalk(sp, n, cold.mk)
		if err != nil {
			return nil, err
		}
		if warm.offered > int64(n+legs) {
			return nil, fmt.Errorf("E5p: legs=%d: warm walk offered %d candidates per probe, want ≤ %d", legs, warm.offered, n+legs)
		}
		perProbe := warm.best / time.Duration(warm.probes)
		loop.AddRow(legs, n, perProbe.Round(time.Microsecond), warm.offered, n+legs)
	}
	return &Report{Tables: []Table{solves, loop}}, nil
}
