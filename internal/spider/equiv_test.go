package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestFastMatchesReferenceRandomized is the equivalence harness for the
// memoized solver: on randomized spiders the fast path must return the
// exact makespan of the reference path and an identical schedule — the
// virtual-slave multiset fed to the deterministic packing is the same,
// so any divergence is a bug, not a tie-break.
func TestFastMatchesReferenceRandomized(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		t.Run(regime.String(), func(t *testing.T) {
			g := platform.MustGenerator(1234+int64(regime), 1, 9, regime)
			for trial := 0; trial < trials; trial++ {
				fastMatchesReference(t, g.Spider(1+trial%5, 1+trial%4), 1+trial%17)
			}
		})
	}
	t.Run("fixed", func(t *testing.T) {
		fastMatchesReference(t, fixedSpider(), 6)
	})
}

// fixedSpider is the hand-written two-leg instance the command-line
// examples use.
func fixedSpider() platform.Spider {
	return platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
}

// fastMatchesReference requires the memoized solver's min-makespan
// answer to equal the reference path's: the same makespan and an
// identical, feasible schedule.
func fastMatchesReference(t *testing.T, sp platform.Spider, n int) {
	t.Helper()
	fastMk, fastS, err := MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	refMk, refS, err := ReferenceMinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if fastMk != refMk {
		t.Fatalf("%v n=%d: fast makespan %d, reference %d", sp, n, fastMk, refMk)
	}
	if !fastS.Equal(refS) {
		t.Fatalf("%v n=%d: schedules diverge:\nfast: %vreference: %v", sp, n, fastS, refS)
	}
	if err := fastS.Verify(); err != nil {
		t.Fatalf("%v n=%d: infeasible: %v", sp, n, err)
	}
}

// TestFastMatchesReferenceDeadlineSweep compares the two paths on the
// deadline-limited question across a sweep of deadlines, including the
// degenerate low end where nothing fits.
func TestFastMatchesReferenceDeadlineSweep(t *testing.T) {
	type instance struct {
		sp platform.Spider
		n  int
	}
	cases := []instance{{fixedSpider(), 6}}
	g := platform.MustGenerator(55, 1, 7, platform.Bimodal)
	for trial := 0; trial < 8; trial++ {
		cases = append(cases, instance{g.Spider(1+trial%4, 1+trial%3), 20})
	}
	for _, tc := range cases {
		solver, err := NewSolver(tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := platform.Time(0); deadline <= 60; deadline += 3 {
			fastS, err := solver.ScheduleWithin(tc.n, deadline)
			if err != nil {
				t.Fatal(err)
			}
			refS, err := ReferenceScheduleWithin(tc.sp, tc.n, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if !fastS.Equal(refS) {
				t.Fatalf("%v deadline %d: schedules diverge:\nfast: %vreference: %v", tc.sp, deadline, fastS, refS)
			}
			if err := fastS.Verify(); err != nil {
				t.Fatalf("%v deadline %d: infeasible: %v", tc.sp, deadline, err)
			}
		}
	}
}

// TestSolverReuseAcrossQueries exercises the memoized solver the way the
// tree heuristic and services would: many task counts against one
// warmed solver, each answer identical to a cold run.
func TestSolverReuseAcrossQueries(t *testing.T) {
	g := platform.MustGenerator(99, 1, 9, platform.Uniform)
	sp := g.Spider(3, 3)
	solver, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 24; n++ {
		mk, s, err := solver.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		coldMk, coldS, err := MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != coldMk || !s.Equal(coldS) {
			t.Fatalf("n=%d: warm solver diverges from cold: %d vs %d", n, mk, coldMk)
		}
	}
}

// TestCrossValidationSimReplay replays the memoized solver's schedules
// through the independent discrete-event simulator on ~50 randomized
// spiders: the Static policy re-executes the destination sequence under
// the paper's resource model, must remain feasible, and — the sequence
// being optimal — must land on exactly the makespan both solvers
// report (the ASAP replay can never finish later than the offline
// schedule, and never earlier than the optimum).
func TestCrossValidationSimReplay(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 10
	}
	g := platform.MustGenerator(2026, 1, 9, platform.Bimodal)
	for trial := 0; trial < trials; trial++ {
		sp := g.Spider(1+trial%5, 1+trial%3)
		n := 1 + trial%15
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			mk, s, err := MinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("offline schedule infeasible: %v", err)
			}
			refMk, _, err := ReferenceMinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if mk != refMk {
				t.Fatalf("fast makespan %d, reference %d", mk, refMk)
			}
			res, err := sim.Run(sp, n, sim.NewStaticFromSpider("replay", s))
			if err != nil {
				t.Fatalf("simulator rejected the schedule: %v", err)
			}
			if len(res.Completions) != n {
				t.Fatalf("simulator completed %d of %d tasks", len(res.Completions), n)
			}
			if res.Makespan != mk {
				t.Fatalf("simulated makespan %d, offline optimum %d", res.Makespan, mk)
			}
		})
	}
}
