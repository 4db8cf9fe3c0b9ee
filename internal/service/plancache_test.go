package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/plancache"
	"repro/internal/platform"
)

func mustOpenStore(t *testing.T) *plancache.Store {
	t.Helper()
	st, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustSolve(t *testing.T, svc *Service, req *Request) *Response {
	t.Helper()
	resp, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRestartDrillSpider is the restart-survival contract end to end: a
// service snapshots its warm set, a fresh service over the same store
// answers the same query with zero new construction — the rehydrate
// counter flips instead — and the answer is identical.
func TestRestartDrillSpider(t *testing.T) {
	store := mustOpenStore(t)
	sp := testSpider()
	req := mustSpiderRequest(t, sp, OpMinMakespan, 40, 0)

	svc1 := New(Config{PlanCache: store})
	warm := mustSolve(t, svc1, req)
	if st := svc1.Stats(); st.Constructions != 1 || st.Rehydrates != 0 {
		t.Fatalf("first service stats %+v, want 1 construction", st)
	}
	entries, legs := svc1.Snapshot()
	if entries != 1 || legs != 3 {
		t.Fatalf("snapshot wrote %d entries / %d legs, want 1 / 3", entries, legs)
	}
	if st := svc1.Stats(); st.Spills != 1 || st.SpilledLegs != 3 {
		t.Fatalf("post-snapshot stats %+v, want 1 spill of 3 legs", st)
	}

	// "Restart": a brand-new service over the same directory.
	svc2 := New(Config{PlanCache: store})
	re := mustSolve(t, svc2, req)
	st := svc2.Stats()
	if st.Constructions != 0 {
		t.Errorf("restarted service constructed %d solvers, want 0", st.Constructions)
	}
	if st.Rehydrates != 1 || st.RehydratedLegs != 3 {
		t.Errorf("restarted service stats %+v, want 1 rehydrate of 3 legs", st)
	}
	if re.Makespan != warm.Makespan || re.Tasks != warm.Tasks {
		t.Errorf("rehydrated answer (%d, %d) differs from original (%d, %d)",
			re.Makespan, re.Tasks, warm.Makespan, warm.Tasks)
	}
	// The rehydrated solve is a cache miss (the LRU is empty) but its
	// cost block must not charge the imported placements as fresh work.
	if re.Meta.Cache != "miss" {
		t.Errorf("rehydrated solve cache = %q, want miss", re.Meta.Cache)
	}
	if re.Meta.Cost != nil && re.Meta.Cost.Constructed != 0 {
		t.Errorf("rehydrated solve cost charged %d constructed placements, want 0", re.Meta.Cost.Constructed)
	}
}

// TestRestartDrillChain covers the chain kind: a one-leg platform
// spills under its leg key and a restarted service rehydrates it.
func TestRestartDrillChain(t *testing.T) {
	store := mustOpenStore(t)
	ch := platform.NewChain(2, 5, 3, 3)
	req, err := NewRequest(ch, OpMinMakespan, 30, 0)
	if err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{PlanCache: store})
	warm := mustSolve(t, svc1, req)
	if entries, legs := svc1.Snapshot(); entries != 1 || legs != 1 {
		t.Fatalf("snapshot wrote %d entries / %d legs, want 1 / 1", entries, legs)
	}

	svc2 := New(Config{PlanCache: store})
	re := mustSolve(t, svc2, req)
	st := svc2.Stats()
	if st.Constructions != 0 || st.Rehydrates != 1 {
		t.Errorf("restarted chain service stats %+v, want 0 constructions, 1 rehydrate", st)
	}
	if re.Makespan != warm.Makespan {
		t.Errorf("rehydrated chain makespan %d, want %d", re.Makespan, warm.Makespan)
	}
}

// TestRestartDrillTree covers the tree kind, whose paid state is its
// cover spider's leg plans.
func TestRestartDrillTree(t *testing.T) {
	store := mustOpenStore(t)
	tr := platform.Tree{Roots: []platform.TreeNode{
		{Comm: 3, Work: 5, Children: []platform.TreeNode{
			{Comm: 2, Work: 4},
			{Comm: 1, Work: 7},
		}},
		{Comm: 2, Work: 3},
	}}
	req, err := NewRequest(tr, OpMinMakespan, 25, 0)
	if err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{PlanCache: store})
	warm := mustSolve(t, svc1, req)
	if entries, _ := svc1.Snapshot(); entries != 1 {
		t.Fatalf("snapshot wrote %d entries, want 1", entries)
	}

	svc2 := New(Config{PlanCache: store})
	re := mustSolve(t, svc2, req)
	st := svc2.Stats()
	if st.Constructions != 0 || st.Rehydrates != 1 {
		t.Errorf("restarted tree service stats %+v, want 0 constructions, 1 rehydrate", st)
	}
	if re.Makespan != warm.Makespan {
		t.Errorf("rehydrated tree makespan %d, want %d", re.Makespan, warm.Makespan)
	}
}

// TestSpillOnEvict: an LRU eviction spills the evicted solver's plans,
// so thrash under a too-small cache leaves the work recoverable.
func TestSpillOnEvict(t *testing.T) {
	store := mustOpenStore(t)
	svc := New(Config{CacheSize: 1, PlanCache: store})

	spA := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	spB := platform.NewSpider(platform.NewChain(3, 2, 1, 6))
	mustSolve(t, svc, mustSpiderRequest(t, spA, OpMinMakespan, 30, 0))
	mustSolve(t, svc, mustSpiderRequest(t, spB, OpMinMakespan, 30, 0)) // evicts A

	st := svc.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Spills != 1 || st.SpilledLegs != 2 {
		t.Fatalf("stats %+v, want the evicted solver's 2 legs spilled", st)
	}

	// A re-query of the evicted platform rehydrates from the spill.
	mustSolve(t, svc, mustSpiderRequest(t, spA, OpMinMakespan, 30, 0))
	if st := svc.Stats(); st.Rehydrates != 1 {
		t.Errorf("post-evict re-query stats %+v, want 1 rehydrate", st)
	}
}

// TestRehydrateCorruptFallsBack: a corrupted spill file must not take
// the query down — the service falls back to fresh construction,
// counts the rehydrate error, and still answers correctly.
func TestRehydrateCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	store, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3))
	req := mustSpiderRequest(t, sp, OpMinMakespan, 30, 0)

	svc1 := New(Config{PlanCache: store})
	warm := mustSolve(t, svc1, req)
	svc1.Snapshot()

	// Flip a header byte in every spill file on disk. (A flip in the
	// final record would read as a torn tail — a clean prefix, not
	// corruption — so target the CRC-covered header instead.)
	files, err := filepath.Glob(filepath.Join(dir, "*.legplan"))
	if err != nil || len(files) == 0 {
		t.Fatalf("spill files: %v (err %v)", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[9] ^= 0xff
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logged strings.Builder
	svc2 := New(Config{PlanCache: store, SlowLog: &logged})
	re := mustSolve(t, svc2, req)
	st := svc2.Stats()
	if st.Constructions != 1 || st.Rehydrates != 0 {
		t.Errorf("corrupt-store service stats %+v, want 1 fresh construction", st)
	}
	if re.Makespan != warm.Makespan {
		t.Errorf("post-corruption makespan %d, want %d", re.Makespan, warm.Makespan)
	}
	var expo strings.Builder
	if err := svc2.Metrics().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if got := expo.String(); !strings.Contains(got, "repro_service_rehydrate_errors_total 1") {
		t.Errorf("rehydrate_errors_total not incremented; exposition:\n%s", grepMetric(got, "rehydrate"))
	}
	if !strings.Contains(logged.String(), "plan cache") {
		t.Errorf("corruption not logged; log: %q", logged.String())
	}
}

// grepMetric filters an exposition down to lines mentioning substr, for
// readable test failures.
func grepMetric(exposition, substr string) string {
	var sb strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.Contains(line, substr) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
