package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

// tinyChain is a quick.Generator for small random chains plus a task
// count and a deadline.
type tinyChain struct {
	Chain    platform.Chain
	N        int
	Deadline platform.Time
}

// Generate implements quick.Generator.
func (tinyChain) Generate(r *rand.Rand, _ int) reflect.Value {
	p := 1 + r.Intn(5)
	nodes := make([]platform.Node, p)
	for i := range nodes {
		nodes[i] = platform.Node{
			Comm: platform.Time(1 + r.Intn(6)),
			Work: platform.Time(1 + r.Intn(6)),
		}
	}
	return reflect.ValueOf(tinyChain{
		Chain:    platform.Chain{Nodes: nodes},
		N:        1 + r.Intn(12),
		Deadline: platform.Time(r.Intn(60)),
	})
}

// TestQuickIncrementalMatchesSchedule: materialising n tasks from the
// memoized plan is identical — task for task — to the traced
// construction from scratch toward the paper's horizon, and stays so as
// the same plan is grown to larger n (prefix stability) across random
// chains.
func TestQuickIncrementalMatchesSchedule(t *testing.T) {
	prop := func(in tinyChain) bool {
		inc, err := NewIncremental(in.Chain)
		if err != nil {
			return false
		}
		// Grow the same plan through every count up to n: each step must
		// match a fresh from-scratch schedule.
		for k := 0; k <= in.N; k++ {
			got, err := inc.Schedule(k)
			if err != nil {
				return false
			}
			want, _, err := ScheduleTraced(in.Chain, k)
			if err != nil {
				return false
			}
			if !got.Equal(want) {
				return false
			}
			if got.Verify() != nil {
				return false
			}
			if got.Makespan() != want.Makespan() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalMatchesScheduleWithin: the deadline variant of the
// memoized horizon-0 plan is identical to the traced construction from
// scratch anchored at the deadline itself, and FitWithin agrees with
// the materialised length.
func TestQuickIncrementalMatchesScheduleWithin(t *testing.T) {
	prop := func(in tinyChain) bool {
		inc, err := NewIncremental(in.Chain)
		if err != nil {
			return false
		}
		got, err := inc.ScheduleWithin(in.N, in.Deadline)
		if err != nil {
			return false
		}
		want, _, err := runTraced(in.Chain, in.N, in.Deadline, true)
		if err != nil {
			return false
		}
		return got.Equal(want) && got.Len() == inc.FitWithin(in.N, in.Deadline)
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestIncrementalEmissionsStrictlyDecrease pins down the structural fact
// the spider solver's binary search relies on: successive backward
// placements have strictly decreasing first emissions.
func TestIncrementalEmissionsStrictlyDecrease(t *testing.T) {
	g := platform.MustGenerator(42, 1, 9, platform.Bimodal)
	for trial := 0; trial < 20; trial++ {
		ch := g.Chain(1 + trial%5)
		inc, err := NewIncremental(ch)
		if err != nil {
			t.Fatal(err)
		}
		inc.Grow(40)
		for i := 1; i < 40; i++ {
			if inc.Emission(i) >= inc.Emission(i-1) {
				t.Fatalf("%v: emission %d at backward index %d not below %d at %d",
					ch, inc.Emission(i), i, inc.Emission(i-1), i-1)
			}
		}
	}
}

// TestIncrementalTranslationInvariance pins the other structural fact:
// the plan toward any deadline is the horizon-0 plan shifted, so the
// absolute schedules for two deadlines differ by exactly their gap
// whenever they hold the same number of tasks.
func TestIncrementalTranslationInvariance(t *testing.T) {
	g := platform.MustGenerator(7, 1, 9, platform.Uniform)
	ch := g.Chain(4)
	inc, err := NewIncremental(ch)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	a, err := inc.ScheduleWithin(n, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.ScheduleWithin(n, 450)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != n || b.Len() != n {
		t.Fatalf("deadlines too tight for the test: %d and %d of %d tasks", a.Len(), b.Len(), n)
	}
	shifted := a.Clone()
	shifted.Shift(50)
	if !shifted.Equal(b) {
		t.Fatalf("schedule at deadline 450 is not the deadline-400 schedule shifted by 50:\n%v\nvs\n%v", b, a)
	}
}

// TestEngineInvalidChain: NewIncremental rejects invalid chains.
func TestEngineInvalidChain(t *testing.T) {
	if _, err := NewIncremental(platform.Chain{}); err == nil {
		t.Error("NewIncremental accepted an empty chain")
	}
}

// TestIncrementalNegativeArguments: the memoized plan mirrors the
// package-level error contract.
func TestIncrementalNegativeArguments(t *testing.T) {
	inc, err := NewIncremental(platform.NewChain(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Schedule(-1); err == nil {
		t.Error("Schedule(-1) accepted")
	}
	if _, err := inc.ScheduleWithin(-1, 5); err == nil {
		t.Error("ScheduleWithin(-1, 5) accepted")
	}
	if _, err := inc.ScheduleWithin(3, -1); err == nil {
		t.Error("ScheduleWithin(3, -1) accepted")
	}
	if got := inc.FitWithin(3, -1); got != 0 {
		t.Errorf("FitWithin(3, -1) = %d, want 0", got)
	}
}
