package core

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestValidateOnceErrorMessage is the validate-once regression: a chain
// failing validation must surface the validator's error verbatim from
// every entry point — not wrapped or doubled by a second validation of
// the same chain further down.
func TestValidateOnceErrorMessage(t *testing.T) {
	for _, tc := range []struct {
		name string
		ch   platform.Chain
	}{
		{"empty", platform.Chain{}},
		{"zero-latency", platform.NewChain(0, 4, 2, 3)},
		{"zero-work", platform.NewChain(2, 4, 3, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.ch.Validate()
			if want == nil {
				t.Fatal("test chain unexpectedly valid")
			}
			if _, err := Schedule(tc.ch, 3); err == nil || err.Error() != want.Error() {
				t.Errorf("Schedule error = %v, want %v", err, want)
			}
			if _, err := ScheduleWithin(tc.ch, 3, 50); err == nil || err.Error() != want.Error() {
				t.Errorf("ScheduleWithin error = %v, want %v", err, want)
			}
			if _, _, err := ScheduleTraced(tc.ch, 3); err == nil || err.Error() != want.Error() {
				t.Errorf("ScheduleTraced error = %v, want %v", err, want)
			}
		})
	}
}

// TestFlatKernelMatchesTraced pins the flat placement kernel to the
// reference path: the memoized horizon-0 plan on the untraced engine
// (flat scratch buffers, running best-candidate comparison) and the
// traced construction from scratch (materialised candidate matrices
// judged by sched.VecMaxIndex, anchored at the query's own horizon)
// must produce identical schedules on random chains across sizes and
// regimes — including the tie-heavy uniform regime where the
// earliest-index preference of the Definition 3 order does real work.
// Both variants are checked: Schedule against the paper's horizon T∞,
// and ScheduleWithin at random absolute deadlines against the traced
// construction anchored at that deadline, so a horizon shift changing
// any placement shows at the sizes the spider oracle asks for per leg.
func TestFlatKernelMatchesTraced(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	r := rand.New(rand.NewSource(4100))
	for _, regime := range []platform.Heterogeneity{platform.Uniform, platform.CommBound, platform.Bimodal} {
		g := platform.MustGenerator(4100+int64(regime), 1, 5, regime)
		for trial := 0; trial < trials; trial++ {
			ch := g.Chain(1 + trial%9)
			n := 1 + trial%25
			fast, err := Schedule(ch, n)
			if err != nil {
				t.Fatal(err)
			}
			slow, _, err := ScheduleTraced(ch, n)
			if err != nil {
				t.Fatal(err)
			}
			if !fast.Equal(slow) {
				t.Fatalf("regime %v, chain %v, n=%d: flat kernel diverges from traced reference:\nfast: %v\nslow: %v",
					regime, ch, n, fast, slow)
			}
			if err := fast.Verify(); err != nil {
				t.Fatalf("flat-kernel schedule infeasible: %v", err)
			}

			// A deadline up to a quarter past the optimum: most cut the
			// schedule short, some fit all n tasks.
			deadline := platform.Time(r.Int63n(int64(fast.Makespan())*5/4 + 1))
			within, err := ScheduleWithin(ch, n, deadline)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := runTraced(ch, n, deadline, true)
			if err != nil {
				t.Fatal(err)
			}
			if !within.Equal(ref) {
				t.Fatalf("regime %v, chain %v, n=%d, deadline %d: memoized plan diverges from traced reference:\nfast: %v\nslow: %v",
					regime, ch, n, deadline, within, ref)
			}
		}
	}
}

// TestUntracedPlacementAllocations asserts the untraced fast path
// retains nothing per candidate: one placement allocates only the
// committed task's own communication vector (amortised ≈1 allocation),
// while the traced path pays for all p candidate vectors plus the
// matrix holding them. This is the "zero trace retention" satellite —
// a regression here means placeNext grew per-candidate allocations
// back.
func TestUntracedPlacementAllocations(t *testing.T) {
	const p = 16
	g := platform.MustGenerator(42, 1, 9, platform.Bimodal)
	ch := g.Chain(p)

	extend := func(e *engine) {
		task, _ := e.placeNext()
		e.commit(task)
	}
	eng := newEngine(ch, 0)
	// Warm up so one-time engine state is settled.
	for i := 0; i < 8; i++ {
		extend(eng)
	}
	perExtend := testing.AllocsPerRun(200, func() { extend(eng) })
	if perExtend > 1 {
		t.Errorf("untraced placement allocates %.1f objects per task, want ≤ 1 (the Comms vector)", perExtend)
	}

	traced := newEngine(ch, 0)
	for i := 0; i < 8; i++ {
		extend(traced)
	}
	perTraced := testing.AllocsPerRun(200, func() {
		task, _, _ := traced.placeNextTraced()
		traced.commit(task)
	})
	if perTraced < p {
		t.Errorf("traced placement allocates %.1f objects per task — expected ≥ %d (the candidate matrix); did the trace path change?", perTraced, p)
	}
}

// TestDegeneratePlacements is the limited-mode guard's table test: the
// paths that used to read task.Comms[0] unconditionally must handle
// zero-processor chains (an error before any read) and zero-task
// requests (an empty schedule, no placement at all) on every entry
// point.
func TestDegeneratePlacements(t *testing.T) {
	valid := platform.NewChain(2, 3)
	empty := platform.Chain{}
	for _, tc := range []struct {
		name    string
		ch      platform.Chain
		n       int
		limited bool
		tlim    platform.Time
		wantErr bool
		wantLen int
	}{
		{"zero-proc zero-task", empty, 0, false, 0, true, 0},
		{"zero-proc limited", empty, 4, true, 10, true, 0},
		{"zero-task", valid, 0, false, 0, false, 0},
		{"zero-task limited", valid, 0, true, 0, false, 0},
		{"limited zero-deadline", valid, 3, true, 0, false, 0},
		{"limited tight", valid, 3, true, 5, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got int
			var err error
			if tc.limited {
				sch, e := ScheduleWithin(tc.ch, tc.n, tc.tlim)
				err = e
				if e == nil {
					got = sch.Len()
				}
			} else {
				sch, e := Schedule(tc.ch, tc.n)
				err = e
				if e == nil {
					got = sch.Len()
				}
			}
			if tc.wantErr != (err != nil) {
				t.Fatalf("error = %v, wantErr = %v", err, tc.wantErr)
			}
			if err == nil && got != tc.wantLen {
				t.Fatalf("scheduled %d tasks, want %d", got, tc.wantLen)
			}
		})
	}
}
