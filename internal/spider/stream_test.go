package spider

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

// TestStreamingMatchesSlicePacking runs the same solver queries through
// the streaming tree-packer path and the materialise-and-pack slice
// oracle: makespans and schedules must be identical — the streaming feed changes how the admission-order
// multiset reaches the packer, never what is admitted.
func TestStreamingMatchesSlicePacking(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	g := platform.MustGenerator(321, 1, 9, platform.Bimodal)
	for trial := 0; trial < trials; trial++ {
		sp := g.Spider(1+trial%6, 1+trial%4)
		n := 1 + trial%19
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			stream, err := NewSolver(sp)
			if err != nil {
				t.Fatal(err)
			}
			slice := newSliceOracle(t, sp)

			mkS, schS, err := stream.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			mkL, schL, err := slice.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			if mkS != mkL {
				t.Fatalf("streaming makespan %d, slice packing %d", mkS, mkL)
			}
			if !schS.Equal(schL) {
				t.Fatalf("schedules diverge:\nstreaming: %vslice: %v", schS, schL)
			}
			for deadline := platform.Time(0); deadline <= mkS+5; deadline += max(1, mkS/7) {
				a, err := stream.MaxTasks(n, deadline)
				if err != nil {
					t.Fatal(err)
				}
				b, err := slice.MaxTasks(n, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("deadline %d: streaming admits %d, slice packing %d", deadline, a, b)
				}
				sa, err := stream.ScheduleWithin(n, deadline)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := slice.ScheduleWithin(n, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if !sa.Equal(sb) {
					t.Fatalf("deadline %d: deadline-limited schedules diverge", deadline)
				}
			}
		})
	}
}

// TestStreamingMatchesSlicePackingWide is the same identity on a wide
// platform (hundreds of legs) — the wide regime where the streaming tree
// packer exists to win, and where a divergence would be invisible to
// the small randomized trials.
func TestStreamingMatchesSlicePackingWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-platform equivalence skipped in -short mode")
	}
	g := platform.MustGenerator(77, 1, 9, platform.Uniform)
	sp := g.Spider(256, 2)
	n := 192

	stream, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	slice := newSliceOracle(t, sp)

	mkS, schS, err := stream.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	mkL, schL, err := slice.MinMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	if mkS != mkL {
		t.Fatalf("streaming makespan %d, slice packing %d", mkS, mkL)
	}
	if !schS.Equal(schL) {
		t.Fatal("wide-platform schedules diverge")
	}
	if err := schS.Verify(); err != nil {
		t.Fatalf("wide-platform schedule infeasible: %v", err)
	}
}
