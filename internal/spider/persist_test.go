package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// TestPersistentMatchesFromScratchProbing runs the same query mix —
// full min-makespan searches, deadline sweeps, task-count changes —
// through one warm solver reused across every query and through a fresh
// solver per query: makespans and schedules must be identical, since
// nothing a probe leaves behind (the pooled packer, its ceiling, the
// merge order, the grown plans) may steer the next one. Every probe of
// the warm solver must also stay within n + legs offers.
func TestPersistentMatchesFromScratchProbing(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	g := platform.MustGenerator(654, 1, 9, platform.Bimodal)
	for trial := 0; trial < trials; trial++ {
		sp := g.Spider(1+trial%6, 1+trial%4)
		n := 1 + trial%19
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			persist, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			mkP, schP, err := persist.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkS, schS, err := MinMakespan(sp, n)
			if err != nil {
				t.Fatal(err)
			}
			if mkP != mkS {
				t.Fatalf("warm makespan %d, fresh %d", mkP, mkS)
			}
			if !schP.Equal(schS) {
				t.Fatalf("schedules diverge:\nwarm: %vfresh: %v", schP, schS)
			}
			// Interleaved deadline sweep and budget changes: repeats,
			// shrinks, grows.
			for _, m := range []int{n, max(1, n/2), n + 3, n} {
				for deadline := platform.Time(0); deadline <= mkP+5; deadline += max(1, mkP/5) {
					before := persist.Stats().Offered
					a, err := persist.MaxTasks(m, deadline)
					if err != nil {
						t.Fatal(err)
					}
					if off := persist.Stats().Offered - before; off > int64(m+sp.NumLegs()) {
						t.Fatalf("m=%d deadline=%d: %d offers, want ≤ n + legs = %d", m, deadline, off, m+sp.NumLegs())
					}
					b, err := MaxTasks(sp, m, deadline)
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("m=%d deadline=%d: warm admits %d, fresh %d", m, deadline, a, b)
					}
					sa, err := persist.ScheduleWithin(m, deadline)
					if err != nil {
						t.Fatal(err)
					}
					sb, err := coldScheduleWithin(sp, m, deadline)
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

// TestPersistentMatchesFromScratchWide is the same identity on a wide
// platform, where the ceiling retires most legs and a merge bug would be
// invisible to small randomized trials: a warm solver's min-makespan
// search and deadline sweep against fresh solvers and the slice-packing
// oracle, within n + legs offers per packing probe.
func TestPersistentMatchesFromScratchWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-platform equivalence skipped in -short mode")
	}
	g := platform.MustGenerator(88, 1, 30, platform.Bimodal)
	sp := g.Spider(256, 3)
	n := 384

	persist, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	slice := newSliceOracle(t, sp)

	mkP, schP, err := persist.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	mkS, schS, err := slice.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	if mkP != mkS {
		t.Fatalf("ceiling makespan %d, slice %d", mkP, mkS)
	}
	if !schP.Equal(schS) {
		t.Fatal("wide-platform schedules diverge")
	}
	if err := schP.Verify(); err != nil {
		t.Fatalf("wide-platform schedule infeasible: %v", err)
	}
	for _, deadline := range []platform.Time{mkP / 2, mkP - 3, mkP - 1, mkP, mkP + 7} {
		warm, err := persist.ScheduleWithin(n, deadline)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := coldScheduleWithin(sp, n, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Equal(fresh) {
			t.Fatalf("deadline %d: warm and fresh schedules diverge", deadline)
		}
	}
	st := persist.Stats()
	if st.PackProbes == 0 || st.Offered == 0 {
		t.Fatalf("ceiling path did not run: %+v", st)
	}
	if bound := int64(st.PackProbes) * int64(n+sp.NumLegs()); st.Offered > bound {
		t.Fatalf("%d offers over %d packing probes, want ≤ %d", st.Offered, st.PackProbes, bound)
	}
	if st.Offered >= slice.streamed {
		t.Fatalf("ceiling path offered %d candidates, slice path streamed %d", st.Offered, slice.streamed)
	}
}

// TestTwoSidedSeedingReducesProbes pins the satellite claim with the
// new telemetry, on the regime the seeding targets: wide platforms,
// where the optimum sits a small port-contention gap above the
// steady-state bound while the master-only upper bound (one leg doing
// everything) is half a platform away — so galloping to a feasible
// upper seed replaces most of the binary descent. The seeded search
// must converge to the identical schedule while running strictly fewer
// packing probes and strictly fewer feasibility probes. (On narrow
// platforms the master-only bound is already close and the gallop can
// cost a probe or two; the soundness test below covers those.)
func TestTwoSidedSeedingReducesProbes(t *testing.T) {
	for _, tc := range []struct {
		seed        int64
		lo, hi      platform.Time
		legs, depth int
		n           int
	}{
		{99, 1, 9, 16, 2, 128},
		{2025, 1, 30, 256, 3, 512},
	} {
		g := platform.MustGenerator(tc.seed, tc.lo, tc.hi, platform.Bimodal)
		sp := g.Spider(tc.legs, tc.depth)

		seeded, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		unseeded, err := NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}

		mkA, schA, err := seeded.MinMakespan(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		// The search the seeding replaced: bisection from the
		// steady-state bound to the master-only makespan, every probe a
		// packing probe.
		lb, err := sp.LowerBound(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		mkB, probes, err := bisectMinMakespan(sp, tc.n, lb, unseeded.MaxTasks)
		if err != nil {
			t.Fatal(err)
		}
		schB, err := unseeded.ScheduleWithin(tc.n, mkB)
		if err != nil {
			t.Fatal(err)
		}
		if mkA != mkB || !schA.Equal(schB) {
			t.Fatalf("legs=%d n=%d: seeded search diverged: %d vs %d", tc.legs, tc.n, mkA, mkB)
		}
		a := seeded.Stats()
		if a.Probes >= probes {
			t.Errorf("legs=%d n=%d: seeded search ran %d probes, unseeded %d — want a strict drop",
				tc.legs, tc.n, a.Probes, probes)
		}
		if b := unseeded.Stats(); a.PackProbes >= b.PackProbes {
			t.Errorf("legs=%d n=%d: seeded search ran %d packing probes, unseeded %d — want a strict drop",
				tc.legs, tc.n, a.PackProbes, b.PackProbes)
		}
	}
}

// TestTwoSidedSeedingSoundRandomized: across regimes and sizes the
// seeded and unseeded searches must agree exactly — the bounds are
// proven, so seeding may only skip probes, never move the optimum.
func TestTwoSidedSeedingSoundRandomized(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.ComputeBound, platform.Bimodal} {
		g := platform.MustGenerator(500+int64(regime), 1, 9, regime)
		for trial := 0; trial < trials; trial++ {
			sp := g.Spider(1+trial%5, 1+trial%4)
			n := 1 + trial%23
			seeded, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			unseeded, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			mkA, schA, err := seeded.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkB, _, err := bisectMinMakespan(sp, n, 1, unseeded.MaxTasks)
			if err != nil {
				t.Fatal(err)
			}
			schB, err := unseeded.ScheduleWithin(n, mkB)
			if err != nil {
				t.Fatal(err)
			}
			if mkA != mkB || !schA.Equal(schB) {
				t.Fatalf("%v n=%d: seeded %d, unseeded %d", sp, n, mkA, mkB)
			}
		}
	}
}
