// This file holds the production fork path — the spider solver on the
// fork's one-node-leg spider form — to the Fig. 6 expansion oracle in
// oracle_test.go. It is an external test package because spider imports
// fork.
package fork_test

import (
	"testing"

	"repro/internal/fork"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/spider"
)

// TestUnifiedSolverForkEquivalence: a fork solves, in production, as
// its spider form. On random forks the optimum and the task counts
// fitting the optimum, one unit below it and half of it must match the
// direct Fig. 6 expansion path exactly, and both must match the
// exhaustive optimum at the largest task count it can enumerate.
func TestUnifiedSolverForkEquivalence(t *testing.T) {
	g := platform.MustGenerator(303, 1, 9, platform.Uniform)
	for trial := 0; trial < 20; trial++ {
		f := g.Fork(2 + trial%5)
		n := 1 + (trial*11)%30
		s, err := spider.NewSolver(f.Spider())
		if err != nil {
			t.Fatal(err)
		}
		wantMk, _, err := fork.MinMakespan(f, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, sch, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("trial %d: spider-form makespan %d, Fig. 6 oracle %d", trial, mk, wantMk)
		}
		if err := sch.Verify(); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		for _, dl := range []platform.Time{wantMk, wantMk - 1, wantMk / 2} {
			want, err := fork.MaxTasks(f, n, dl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.MaxTasks(n, dl)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d deadline %d: spider-form MaxTasks %d, Fig. 6 oracle %d", trial, dl, got, want)
			}
		}

		// The brute force enumerates slaves^m destination sequences.
		m := 1
		for pow := f.Len(); m < n && pow*f.Len() <= 1<<12; m++ {
			pow *= f.Len()
		}
		_, bruteMk, err := opt.BruteFork(f, m)
		if err != nil {
			t.Fatal(err)
		}
		if mk, _, err := s.MinMakespan(m); err != nil || mk != bruteMk {
			t.Fatalf("trial %d m=%d: spider-form makespan %d (%v), exhaustive optimum %d", trial, m, mk, err, bruteMk)
		}
		if mk, _, err := fork.MinMakespan(f, m); err != nil || mk != bruteMk {
			t.Fatalf("trial %d m=%d: Fig. 6 oracle makespan %d (%v), exhaustive optimum %d", trial, m, mk, err, bruteMk)
		}
	}
}
