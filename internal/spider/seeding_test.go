package spider

import (
	"testing"

	"repro/internal/platform"
)

// TestLowerBoundSeedIsSound pins the premise of the seeded binary
// search: the steady-state bound never exceeds the optimal makespan, so
// starting the search there cannot skip the optimum. The comparison
// MUST run against the unseeded reference solver — the seeded search's
// own result is ≥ the seed by construction, which would make the
// assertion circular. The full fast-vs-reference equivalence harness
// (equiv_test.go) additionally proves the seeded search converges to
// the identical schedule.
func TestLowerBoundSeedIsSound(t *testing.T) {
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		g := platform.MustGenerator(99+int64(regime), 1, 9, regime)
		for trial := 0; trial < 25; trial++ {
			sp := g.Spider(1+trial%5, 1+trial%4)
			n := 1 + trial%23
			lb, err := sp.LowerBound(n)
			if err != nil {
				t.Fatal(err)
			}
			mk, _, err := ReferenceMinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if lb > mk {
				t.Fatalf("%v n=%d: lower bound %d exceeds optimal makespan %d", sp, n, lb, mk)
			}
		}
	}
}

// TestMinMakespanRepeatStable: repeated queries on one warmed solver
// must return the same answer as a fresh solve (the serving layer
// depends on this determinism).
func TestMinMakespanRepeatStable(t *testing.T) {
	g := platform.MustGenerator(3, 1, 9, platform.Bimodal)
	sp := g.Spider(4, 3)
	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{17, 5, 17, 40, 17} {
		mk, sch, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		freshMk, freshSch, err := MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != freshMk || !sch.Equal(freshSch) {
			t.Fatalf("n=%d: warmed solver diverges from fresh solve (%d vs %d)", n, mk, freshMk)
		}
	}
}
