package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// dupSpider builds a spider of `copies` repetitions of each given leg,
// interleaved so identical legs are not adjacent — the dedup map, not
// leg order, must find them.
func dupSpider(copies int, legs ...platform.Chain) platform.Spider {
	var all []platform.Chain
	for i := 0; i < copies; i++ {
		for _, leg := range legs {
			all = append(all, leg)
		}
	}
	return platform.NewSpider(all...)
}

// TestLegDedupScheduleIdentical is the dedup half of the equivalence
// ladder: across random spiders (including fork-shaped depth-1 ones)
// the dedup'd solver must produce schedules identical — not merely
// equal makespans — to a solver with one independent plan per leg,
// under full min-makespan solves and warm deadline/budget sweeps.
func TestLegDedupScheduleIdentical(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.Bimodal} {
		g := platform.MustGenerator(9000+int64(regime), 1, 6, regime)
		for trial := 0; trial < trials; trial++ {
			// Narrow draw ranges at shallow depth make duplicate legs
			// common; depth 1 exercises the fork shape.
			sp := g.Spider(1+trial%8, 1+trial%3)
			n := 1 + trial%17
			t.Run(fmt.Sprintf("regime=%v/trial=%d", regime, trial), func(t *testing.T) {
				dedup, err := NewSolver(sp)
				if err != nil {
					t.Fatal(err)
				}
				plain := newPerLegSolver(t, sp)
				if got := plain.DistinctLegPlans(); got != sp.NumLegs() {
					t.Fatalf("per-leg solver owns %d plans, want one per leg (%d)", got, sp.NumLegs())
				}
				if got := dedup.DistinctLegPlans(); got > sp.NumLegs() {
					t.Fatalf("dedup on owns %d plans on %d legs", got, sp.NumLegs())
				}

				mkA, schA, err := dedup.MinMakespan(n)
				if err != nil {
					t.Fatal(err)
				}
				mkB, schB, err := plain.MinMakespan(n)
				if err != nil {
					t.Fatal(err)
				}
				if mkA != mkB {
					t.Fatalf("dedup makespan %d, independent plans %d", mkA, mkB)
				}
				if !schA.Equal(schB) {
					t.Fatalf("schedules diverge:\ndedup: %vplain: %v", schA, schB)
				}
				// Warm sweeps over both probe coordinates.
				for _, m := range []int{n, max(1, n/2), n + 2} {
					for deadline := platform.Time(0); deadline <= mkA+4; deadline += max(1, mkA/4) {
						a, err := dedup.MaxTasks(m, deadline)
						if err != nil {
							t.Fatal(err)
						}
						b, err := plain.MaxTasks(m, deadline)
						if err != nil {
							t.Fatal(err)
						}
						if a != b {
							t.Fatalf("m=%d deadline=%d: dedup admits %d, plain %d", m, deadline, a, b)
						}
						sa, err := dedup.ScheduleWithin(m, deadline)
						if err != nil {
							t.Fatal(err)
						}
						sb, err := plain.ScheduleWithin(m, deadline)
						if err != nil {
							t.Fatal(err)
						}
						if !sa.Equal(sb) {
							t.Fatalf("m=%d deadline=%d: deadline-limited schedules diverge", m, deadline)
						}
					}
				}
			})
		}
	}
}

// TestLegDedupDuplicateRegimes pins the regimes the dedup exists for:
// every leg identical, and 2 distinct shapes × 512 copies. The solver
// must own exactly as many plans as there are distinct shapes, and the
// schedules must match the independent-plans solver and verify feasible.
func TestLegDedupDuplicateRegimes(t *testing.T) {
	legA := platform.NewChain(2, 5, 3, 3)
	legB := platform.NewChain(1, 4, 2, 2, 1, 6)
	copies := 512
	if testing.Short() {
		copies = 48
	}
	for _, tc := range []struct {
		name     string
		sp       platform.Spider
		distinct int
		n        int
	}{
		{"all-identical", dupSpider(copies, legA), 1, 3 * copies / 2},
		{"two-shapes", dupSpider(copies, legA, legB), 2, 2 * copies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dedup, err := NewSolver(tc.sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := dedup.DistinctLegPlans(); got != tc.distinct {
				t.Fatalf("solver owns %d plans, want %d", got, tc.distinct)
			}
			plain := newPerLegSolver(t, tc.sp)

			mkA, schA, err := dedup.MinMakespan(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			mkB, schB, err := plain.MinMakespan(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if mkA != mkB || !schA.Equal(schB) {
				t.Fatalf("duplicate-leg schedules diverge: makespans %d vs %d", mkA, mkB)
			}
			if err := schA.Verify(); err != nil {
				t.Fatalf("duplicate-leg schedule infeasible: %v", err)
			}
		})
	}
}

// TestWarmCrossNSweep is the cross-n identity: one warm solver
// answering MinMakespan over a sweep of task counts must agree with a
// cold solver per count, and every packing probe of the sweep must stay
// within n + legs offers for the largest n asked.
func TestWarmCrossNSweep(t *testing.T) {
	g := platform.MustGenerator(321, 1, 9, platform.Bimodal)
	sp := g.Spider(24, 3)
	base := 96

	warm, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.MinMakespan(base); err != nil {
		t.Fatal(err)
	}
	afterFirst := warm.Stats()

	for _, delta := range []int{1, -1, 5, -7, 2, 0, -3} {
		n := base + delta
		mkW, schW, err := warm.MinMakespan(n)
		if err != nil {
			t.Fatalf("n=%d: warm solve: %v", n, err)
		}
		cold, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		mkC, schC, err := cold.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mkW != mkC {
			t.Fatalf("n=%d: warm makespan %d, cold %d", n, mkW, mkC)
		}
		if !schW.Equal(schC) {
			t.Fatalf("n=%d: warm and cold schedules diverge", n)
		}
	}
	st := warm.Stats()
	probes, offered := st.PackProbes-afterFirst.PackProbes, st.Offered-afterFirst.Offered
	if probes == 0 {
		t.Fatal("the sweep ran no packing probes")
	}
	if bound := int64(probes) * int64(base+5+sp.NumLegs()); offered > bound {
		t.Errorf("sweep offered %d candidates over %d packing probes, want ≤ %d", offered, probes, bound)
	}
}

// TestWarmCrossNBudgetTrim: a warm solver re-asked at the optimum with
// a smaller budget runs one packing probe that stops after n−5
// admissions, within n−5 + legs offers, and schedules exactly as a cold
// solver does.
func TestWarmCrossNBudgetTrim(t *testing.T) {
	g := platform.MustGenerator(55, 1, 9, platform.Bimodal)
	sp := g.Spider(10, 3)
	n := 60

	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	mk, _, err := s.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MaxTasks(n, mk)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("MaxTasks(%d, optimum) = %d", n, got)
	}
	before := s.Stats()
	trimmed, err := s.MaxTasks(n-5, mk)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != n-5 {
		t.Fatalf("MaxTasks(%d, optimum) = %d", n-5, trimmed)
	}
	after := s.Stats()
	if after.PackProbes != before.PackProbes+1 {
		t.Errorf("budget trim ran %d packing probes, want 1", after.PackProbes-before.PackProbes)
	}
	if off := after.Offered - before.Offered; off > int64(n-5+sp.NumLegs()) {
		t.Errorf("budget trim offered %d candidates, want ≤ %d", off, n-5+sp.NumLegs())
	}
	warm, err := s.ScheduleWithin(n-5, mk)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldScheduleWithin(sp, n-5, mk)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Equal(cold) {
		t.Fatal("budget-trimmed schedules diverge from a cold solver's")
	}
}
