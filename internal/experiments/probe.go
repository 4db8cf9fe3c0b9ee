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
		Paper: "§6/§7 deadline-search probes: ceiling-bounded merge + packer vs the materialised slice packer",
		Run:   runCeilingPacking,
	})
}

// probeLegCounts is the E5p platform family: narrow (4 legs, the E5c
// regime), wide (256, the E5w regime) and very wide (1024) spiders from
// the same Bimodal generator as E5w.
var probeLegCounts = []int{4, 256, 1024}

// newProbeSolver builds a solver on the ceiling path or, with slicePack,
// on the slice-packing oracle path.
func newProbeSolver(sp platform.Spider, slicePack bool) (*spider.Solver, error) {
	s, err := spider.NewSolver(sp)
	if err != nil {
		return nil, err
	}
	s.SetSlicePacking(slicePack)
	return s, nil
}

// timeProbeSolve measures one cold MinMakespan (construction included)
// on the chosen path, min-of-reps, with the last rep's telemetry.
func timeProbeSolve(sp platform.Spider, n int, slicePack bool) (time.Duration, platform.Time, spider.ProbeStats, error) {
	const reps = 3
	best := time.Duration(1<<63 - 1)
	var mk platform.Time
	var st spider.ProbeStats
	for r := 0; r < reps; r++ {
		s, err := newProbeSolver(sp, slicePack)
		if err != nil {
			return 0, 0, st, err
		}
		start := time.Now()
		m, _, err := s.MinMakespan(n)
		if err != nil {
			return 0, 0, st, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		mk, st = m, s.Stats()
	}
	return best, mk, st, nil
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

// timeProbeLoop measures the warm per-probe cost of the walk and the
// candidates offered per probe (on the slice path: streamed per probe).
func timeProbeLoop(sp platform.Spider, n int, opt platform.Time, slicePack bool) (time.Duration, int64, error) {
	const reps = 5
	s, err := newProbeSolver(sp, slicePack)
	if err != nil {
		return 0, 0, err
	}
	walk := probeWalk(opt)
	if _, _, err := s.MinMakespan(n); err != nil { // warm plans + packer
		return 0, 0, err
	}
	best := time.Duration(1<<63 - 1)
	before := s.Stats().Offered
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
	probes := int64(reps * len(walk))
	return best / time.Duration(len(walk)), (s.Stats().Offered - before) / probes, nil
}

// runCeilingPacking is the E5p experiment: the ceiling path (the
// default probe) against the slice-packing oracle, on cold solves and
// on the warm probe loop. Hard asserts pin schedule identity and the
// offer counts, never a wall-clock ratio: every packing probe offers at
// most n + legs candidates, and never more than the slice path streams.
// A third table reports the two-sided seeding's effect on probe counts.
func runCeilingPacking() (*Report, error) {
	solves := Table{
		Title: "E5p: ceiling packing — cold min-makespan solve",
		Note: "full solve incl. leg-plan construction (Bimodal 1..30, n=512); identical\n" +
			"schedules required; offered = candidates the ceiling path offered, streamed =\n" +
			"candidates the slice path materialised, over the whole search",
		Header: []string{"legs", "n", "ceiling", "slice", "speedup", "offered", "streamed"},
	}
	loop := Table{
		Title: "E5p: warm probe loop — per-probe cost of a deadline walk",
		Note: "binary-search walk bracketing the optimum on a warmed solver; per probe:\n" +
			"wall time, and candidates offered (ceiling) or streamed (slice)",
		Header: []string{"legs", "n", "ceiling/probe", "slice/probe", "speedup", "offered/probe", "streamed/probe"},
	}
	seeding := Table{
		Title:  "E5p: two-sided search seeding — probes per solve",
		Note:   "packing probes (and total feasibility probes) of one cold solve, by telemetry",
		Header: []string{"legs", "n", "seeded packs", "unseeded packs", "seeded probes", "unseeded probes"},
	}
	const n = 512
	for _, legs := range probeLegCounts {
		sp := wideSpider(legs)

		dC, mkC, stC, err := timeProbeSolve(sp, n, false)
		if err != nil {
			return nil, err
		}
		dS, mkS, stS, err := timeProbeSolve(sp, n, true)
		if err != nil {
			return nil, err
		}
		if mkC != mkS {
			return nil, fmt.Errorf("E5p: legs=%d: ceiling makespan %d, slice %d", legs, mkC, mkS)
		}
		if bound := int64(stC.PackProbes) * int64(n+legs); stC.Offered > bound {
			return nil, fmt.Errorf("E5p: legs=%d: %d offers over %d packing probes, want ≤ %d (n + legs per probe)",
				legs, stC.Offered, stC.PackProbes, bound)
		}
		if stC.Offered > stS.Offered {
			return nil, fmt.Errorf("E5p: legs=%d: ceiling path offered %d candidates, the slice path streamed only %d",
				legs, stC.Offered, stS.Offered)
		}
		// Schedule identity, not just makespan equality: both paths must
		// admit the same multiset into the same slots.
		sC, err := newProbeSolver(sp, false)
		if err != nil {
			return nil, err
		}
		sS, err := newProbeSolver(sp, true)
		if err != nil {
			return nil, err
		}
		schedC, err := sC.ScheduleWithin(n, mkC)
		if err != nil {
			return nil, err
		}
		schedS, err := sS.ScheduleWithin(n, mkC)
		if err != nil {
			return nil, err
		}
		if !schedC.Equal(schedS) {
			return nil, fmt.Errorf("E5p: legs=%d: probe-path schedules diverge", legs)
		}
		solves.AddRow(legs, n, dC.Round(time.Microsecond), dS.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", float64(dS)/float64(dC)), stC.Offered, stS.Offered)

		lC, offC, err := timeProbeLoop(sp, n, mkC, false)
		if err != nil {
			return nil, err
		}
		lS, offS, err := timeProbeLoop(sp, n, mkC, true)
		if err != nil {
			return nil, err
		}
		if offC > int64(n+legs) {
			return nil, fmt.Errorf("E5p: legs=%d: warm walk offered %d candidates per probe, want ≤ %d", legs, offC, n+legs)
		}
		loop.AddRow(legs, n, lC.Round(time.Microsecond), lS.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", float64(lS)/float64(lC)), offC, offS)

		un, err := spider.NewSolver(sp)
		if err != nil {
			return nil, err
		}
		un.SetTwoSidedSeeding(false)
		mkU, _, err := un.MinMakespan(n)
		if err != nil {
			return nil, err
		}
		if mkU != mkC {
			return nil, fmt.Errorf("E5p: legs=%d: unseeded search makespan %d, seeded %d", legs, mkU, mkC)
		}
		stU := un.Stats()
		// On wide platforms — the regime the seeding targets — the probe
		// count must actually drop; on narrow ones the master-only bound
		// is already tight and the gallop may cost a probe, which the
		// table reports without failing.
		if legs >= 256 && stC.Probes >= stU.Probes {
			return nil, fmt.Errorf("E5p: legs=%d: seeding did not reduce feasibility probes (%d vs %d)",
				legs, stC.Probes, stU.Probes)
		}
		seeding.AddRow(legs, n, stC.PackProbes, stU.PackProbes, stC.Probes, stU.Probes)
	}
	return &Report{Tables: []Table{solves, loop, seeding}}, nil
}
