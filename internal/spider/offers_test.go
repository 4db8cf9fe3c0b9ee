package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// probeMatchesSlice runs one MaxTasks and one ScheduleWithin probe on
// the ceiling solver and the slice-packing oracle, requiring identical
// answers and at most n + legs offers for the ceiling path's probe.
func probeMatchesSlice(t *testing.T, label string, ceil *Solver, slice *sliceOracle, n int, deadline platform.Time) {
	t.Helper()
	before := ceil.Stats().Offered
	a, err := ceil.MaxTasks(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	legs := ceil.Spider().NumLegs()
	if off := ceil.Stats().Offered - before; off > int64(n+legs) {
		t.Fatalf("%s: %d offers, want ≤ n + legs = %d", label, off, n+legs)
	}
	b, err := slice.MaxTasks(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("%s: ceiling path admits %d, slice path %d", label, a, b)
	}
	sa, err := ceil.ScheduleWithin(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := slice.ScheduleWithin(n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Equal(sb) {
		t.Fatalf("%s: schedules diverge", label)
	}
}

// solverPair returns a ceiling-path solver and the slice-packing oracle
// on the same spider.
func solverPair(t *testing.T, sp platform.Spider) (*Solver, *sliceOracle) {
	t.Helper()
	ceil, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	return ceil, newSliceOracle(t, sp)
}

// TestGroupedMergeMatchesSlicePacking runs the grouped merge on the
// patterns it must get right: a single leg, legs whose runs are empty at
// small deadlines, identical legs whose candidates tie on (Comm, Proc)
// and break by leg, and wide platforms with many Comm groups. Each
// probe must match the slice-packing oracle within n + legs offers.
func TestGroupedMergeMatchesSlicePacking(t *testing.T) {
	cases := []struct {
		name string
		sp   platform.Spider
		n    int
	}{
		{"single-leg", platform.NewSpider(platform.NewChain(2, 3, 1, 4)), 9},
		{"two-legs", platform.MustGenerator(7, 1, 9, platform.Bimodal).Spider(2, 3), 17},
		{"identical-legs-ties", platform.NewSpider(
			platform.NewChain(3, 2), platform.NewChain(3, 2), platform.NewChain(3, 2), platform.NewChain(3, 2)), 12},
		{"wide-64", platform.MustGenerator(21, 1, 9, platform.Bimodal).Spider(64, 2), 96},
		{"wide-1024", platform.MustGenerator(22, 1, 30, platform.Bimodal).Spider(1024, 2), 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ceil, slice := solverPair(t, tc.sp)
			hi := tc.sp.MasterOnlyMakespan(tc.n)
			for _, m := range []int{tc.n, 1, tc.n / 3} {
				for _, deadline := range []platform.Time{0, 1, hi / 7, hi / 3, hi} {
					probeMatchesSlice(t, fmt.Sprintf("n=%d deadline=%d", m, deadline), ceil, slice, m, deadline)
				}
			}
		})
	}
}

// TestOfferBoundRandomSpidersAndForks bounds the offers of every probe
// by n + legs on random spiders of every heterogeneity regime and on
// random forks (through their spider form, whose one-node legs are the
// §6 virtual-slave runs), around each platform's optimum and far from
// it, with the slice-packing oracle's answers required.
func TestOfferBoundRandomSpidersAndForks(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		g := platform.MustGenerator(900+int64(regime), 1, 12, regime)
		for trial := 0; trial < trials; trial++ {
			sp := g.Spider(1+trial%9, 1+trial%3)
			if trial%2 == 1 {
				sp = g.Fork(2 + trial%13).Spider()
			}
			n := 1 + (trial*7)%40
			ceil, slice := solverPair(t, sp)
			mk, _, err := ceil.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			st := ceil.Stats()
			if bound := int64(st.PackProbes) * int64(n+sp.NumLegs()); st.Offered > bound {
				t.Fatalf("%v n=%d: search offered %d over %d packing probes, want ≤ %d", sp, n, st.Offered, st.PackProbes, bound)
			}
			for _, deadline := range []platform.Time{mk / 3, mk - 1, mk, mk + 2, 4 * mk} {
				probeMatchesSlice(t, fmt.Sprintf("%v n=%d deadline=%d", sp, n, deadline), ceil, slice, n, deadline)
			}
		}
	}
}

// TestSolverLowerBoundMatchesPlatform: the solver's cached steady-state
// bound must equal platform.Spider.LowerBound for every n, on spiders
// and forks alike, and repeat identically on a warm solver.
func TestSolverLowerBoundMatchesPlatform(t *testing.T) {
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		g := platform.MustGenerator(40+int64(regime), 1, 30, regime)
		for trial := 0; trial < 12; trial++ {
			sp := g.Spider(1+trial, 1+trial%4)
			if trial%3 == 2 {
				sp = g.Fork(1 + 3*trial).Spider()
			}
			s, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 3, 7, 64, 511, 4096, 1, 64} {
				want, err := sp.LowerBound(n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.lowerBound(n)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v n=%d: solver bound %d, platform bound %d", sp, n, got, want)
				}
			}
		}
	}
}
