package spider

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// TestTracePhaseAttribution: a traced solve must report spans into the
// phases the solve actually runs — construction (leg plan growth),
// dedup (buildPlans set-up, flushed on attach), merge (fit-count cuts),
// pack (probe bodies) and extract (the Lemma-3 revert) — and detaching
// must stop the reporting.
func TestTracePhaseAttribution(t *testing.T) {
	g := platform.MustGenerator(7, 1, 9, platform.Bimodal)
	sp := g.Spider(4, 3)
	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.SolveTrace{}
	s.SetTrace(tr)

	if _, _, err := s.MinMakespan(40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScheduleWithin(40, 10_000); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	for _, p := range []obs.Phase{obs.PhaseConstruct, obs.PhaseDedup, obs.PhaseMerge, obs.PhasePack, obs.PhaseExtract} {
		if snap.Spans[p] == 0 {
			t.Errorf("phase %s: no spans recorded (snapshot %+v)", p, snap.Map())
		}
	}
	// The buildPlans set-up flushes exactly once, on first attach.
	if snap.Spans[obs.PhaseDedup] != 1 {
		t.Errorf("dedup spans = %d, want exactly 1 (the buildPlans flush)", snap.Spans[obs.PhaseDedup])
	}

	// Detach: further queries must not grow the trace.
	s.SetTrace(nil)
	if _, _, err := s.MinMakespan(55); err != nil {
		t.Fatal(err)
	}
	if after := tr.Snapshot(); after != snap {
		t.Errorf("detached trace still collecting: %+v -> %+v", snap.Map(), after.Map())
	}

	// Re-attach: the dedup flush must NOT repeat (same plans, same trace).
	s.SetTrace(tr)
	if _, _, err := s.MinMakespan(60); err != nil {
		t.Fatal(err)
	}
	if got := tr.Snapshot().Spans[obs.PhaseDedup]; got != 1 {
		t.Errorf("dedup flushed again on re-attach: spans = %d, want 1", got)
	}
}

// TestTracedSolveUnchanged: attaching a trace must not change any
// answer — the hooks observe, they do not steer.
func TestTracedSolveUnchanged(t *testing.T) {
	g := platform.MustGenerator(21, 1, 9, platform.CommBound)
	sp := g.Spider(5, 2)
	plain, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	traced.SetTrace(&obs.SolveTrace{})
	for _, n := range []int{1, 7, 23, 23, 12, 40} {
		mkP, schP, err := plain.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		mkT, schT, err := traced.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mkP != mkT || !schP.Equal(schT) {
			t.Fatalf("n=%d: traced solve diverges (%d vs %d)", n, mkP, mkT)
		}
	}
}

// TestTraceDisabledAllocations is the zero-overhead guard the ISSUE
// asks for: with no trace attached (the default), the warm probe path
// must stay at its pre-instrumentation budget of ≤ 2 allocations (the
// pooled packer's warm floor) — the hooks are a nil compare,
// not a closure, not an interface call — and attaching a trace must
// add zero more: observing is two clock reads and an atomic add.
func TestTraceDisabledAllocations(t *testing.T) {
	g := platform.MustGenerator(11, 1, 9, platform.Bimodal)
	sp := g.Spider(6, 4)
	s, err := NewSolver(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: pay construction, packing and memo growth once.
	if _, _, err := s.MinMakespan(64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaxTasks(64, 9_000); err != nil {
		t.Fatal(err)
	}
	perProbe := testing.AllocsPerRun(500, func() {
		if _, err := s.MaxTasks(64, 9_000); err != nil {
			t.Fatal(err)
		}
	})
	if perProbe > 2 {
		t.Errorf("disabled-hooks warm probe allocates %.1f objects, want ≤ 2 (the warm packing floor)", perProbe)
	}

	s.SetTrace(&obs.SolveTrace{})
	if _, err := s.MaxTasks(64, 9_000); err != nil {
		t.Fatal(err)
	}
	perTraced := testing.AllocsPerRun(500, func() {
		if _, err := s.MaxTasks(64, 9_000); err != nil {
			t.Fatal(err)
		}
	})
	if perTraced > perProbe {
		t.Errorf("tracing added allocations to the warm probe: %.1f traced vs %.1f disabled", perTraced, perProbe)
	}
}

// BenchmarkWarmProbe / BenchmarkWarmProbeTraced bracket the hook
// overhead on the E5p-style warm loop: same warmed solver, same query,
// with and without a trace attached. CI's bench smoke runs both; the
// traced column should sit within noise of the plain one.
func benchWarmProbe(b *testing.B, traced bool) {
	g := platform.MustGenerator(11, 1, 9, platform.Bimodal)
	sp := g.Spider(64, 3)
	s, err := NewSolver(sp)
	if err != nil {
		b.Fatal(err)
	}
	if traced {
		s.SetTrace(&obs.SolveTrace{})
	}
	if _, _, err := s.MinMakespan(128); err != nil {
		b.Fatal(err)
	}
	if _, err := s.MaxTasks(128, 50_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MaxTasks(128, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmProbe(b *testing.B)       { benchWarmProbe(b, false) }
func BenchmarkWarmProbeTraced(b *testing.B) { benchWarmProbe(b, true) }
