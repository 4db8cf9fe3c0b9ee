package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/platform"
)

// TestUnifiedSolverChainEquivalence: the unified Solver must answer
// chain queries byte-identically to the flat facade functions — same
// schedules, not merely same makespans.
func TestUnifiedSolverChainEquivalence(t *testing.T) {
	g := platform.MustGenerator(101, 1, 9, platform.Uniform)
	for trial := 0; trial < 30; trial++ {
		ch := g.Chain(1 + trial%7)
		n := 1 + (trial*13)%40
		s, err := repro.NewSolver(ch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := repro.ScheduleChain(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != want.Makespan() {
			t.Fatalf("trial %d: solver makespan %d, facade %d", trial, mk, want.Makespan())
		}
		if !got.(*repro.ChainSchedule).Equal(want) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}

		dl := want.Makespan() * 2 / 3
		wantW, err := repro.ScheduleChainWithin(ch, n, dl)
		if err != nil {
			t.Fatal(err)
		}
		gotW, err := s.ScheduleWithin(n, dl)
		if err != nil {
			t.Fatal(err)
		}
		if !gotW.(*repro.ChainSchedule).Equal(wantW) {
			t.Fatalf("trial %d: deadline schedules diverge", trial)
		}
		k, err := s.MaxTasks(n, dl)
		if err != nil {
			t.Fatal(err)
		}
		if k != wantW.Len() {
			t.Fatalf("trial %d: MaxTasks %d, want %d", trial, k, wantW.Len())
		}
	}
}

// TestUnifiedSolverSpiderEquivalence: spider queries through the
// unified Solver produce schedules identical to the flat facade.
func TestUnifiedSolverSpiderEquivalence(t *testing.T) {
	g := platform.MustGenerator(202, 1, 9, platform.Bimodal)
	for trial := 0; trial < 20; trial++ {
		sp := g.Spider(2+trial%4, 3)
		n := 1 + (trial*7)%30
		s, err := repro.NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		wantMk, wantSch, err := repro.SpiderMinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("trial %d: solver makespan %d, facade %d", trial, mk, wantMk)
		}
		if !got.(*repro.SpiderSchedule).Equal(wantSch) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}
		wantW, err := repro.ScheduleSpiderWithin(sp, n, wantMk-1)
		if err != nil {
			t.Fatal(err)
		}
		gotW, err := s.ScheduleWithin(n, wantMk-1)
		if err != nil {
			t.Fatal(err)
		}
		if !gotW.(*repro.SpiderSchedule).Equal(wantW) {
			t.Fatalf("trial %d: deadline schedules diverge", trial)
		}
	}
}

// TestForkFacadeMatchesSolver: the fork facade answers through the
// unified solver, so ForkMinMakespan returns NewSolver(f).MinMakespan's
// schedule, not merely its makespan, and ForkMaxTasks its task counts.
// (internal/fork's TestUnifiedSolverForkEquivalence holds that solver
// to the Fig. 6 expansion oracle on the same forks.)
func TestForkFacadeMatchesSolver(t *testing.T) {
	g := platform.MustGenerator(303, 1, 9, platform.Uniform)
	for trial := 0; trial < 20; trial++ {
		f := g.Fork(2 + trial%5)
		n := 1 + (trial*11)%30
		s, err := repro.NewSolver(f)
		if err != nil {
			t.Fatal(err)
		}
		gotMk, got, err := repro.ForkMinMakespan(f, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, sch, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if gotMk != mk || !got.Equal(sch.(*repro.SpiderSchedule)) {
			t.Fatalf("trial %d: facade makespan %d, solver %d, or their schedules diverge", trial, gotMk, mk)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		for _, dl := range []repro.Time{mk, mk - 1, mk / 2} {
			want, err := s.MaxTasks(n, dl)
			if err != nil {
				t.Fatal(err)
			}
			k, err := repro.ForkMaxTasks(f, n, dl)
			if err != nil {
				t.Fatal(err)
			}
			if k != want {
				t.Fatalf("trial %d deadline %d: ForkMaxTasks %d, solver %d", trial, dl, k, want)
			}
		}
	}
}

// TestUnifiedSolverTreeEquivalence is half of the PR's acceptance
// criterion: tree queries through the unified Solver are identical to
// repro.ScheduleTree (the service asserts the other half over HTTP).
func TestUnifiedSolverTreeEquivalence(t *testing.T) {
	g := platform.MustGenerator(404, 1, 9, platform.Uniform)
	for trial := 0; trial < 15; trial++ {
		tr := g.Tree(3, 3)
		n := 1 + (trial*9)%25
		s, err := repro.NewSolver(tr)
		if err != nil {
			t.Fatal(err)
		}
		wantMk, wantSch, _, err := repro.ScheduleTree(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("trial %d: solver makespan %d, ScheduleTree %d", trial, mk, wantMk)
		}
		if !got.(*repro.SpiderSchedule).Equal(wantSch) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
	}
}

// TestPlatformInterfaceAgreesWithFlatFacade: the Platform methods and
// the historical per-topology functions answer from the same math.
func TestPlatformInterfaceAgreesWithFlatFacade(t *testing.T) {
	ch := repro.NewChain(2, 5, 3, 3)
	sp := repro.NewSpider(ch, repro.NewChain(1, 4))
	f := repro.NewFork(1, 3, 2, 2)
	tr := repro.TreeFromSpider(sp)

	if got, want := ch.Hash(), repro.HashChain(ch); got != want {
		t.Error("chain Hash() diverges from HashChain")
	}
	if got, want := sp.Hash(), repro.HashSpider(sp); got != want {
		t.Error("spider Hash() diverges from HashSpider")
	}
	if got, want := f.Hash(), repro.HashFork(f); got != want {
		t.Error("fork Hash() diverges from HashFork")
	}
	if got, want := tr.Hash(), repro.HashTree(tr); got != want {
		t.Error("tree Hash() diverges from HashTree")
	}
	if tr.Hash() != sp.Hash() {
		t.Error("spider-shaped tree must hash as the spider it embeds")
	}

	rc, err := ch.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := repro.ChainThroughput(ch)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cmp(rc2) != 0 {
		t.Error("chain Throughput() diverges from ChainThroughput")
	}
	lb, err := sp.LowerBound(10)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := repro.SpiderLowerBound(sp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lb != lb2 {
		t.Errorf("spider LowerBound %d diverges from SpiderLowerBound %d", lb, lb2)
	}

	kinds := map[string]repro.Platform{"chain": ch, "spider": sp, "fork": f, "tree": tr}
	for want, p := range kinds {
		if p.Kind() != want {
			t.Errorf("Kind() = %q, want %q", p.Kind(), want)
		}
	}
}

// TestFacadeErrorsNameTopology: every facade error names its topology
// exactly once, at the front.
func TestFacadeErrorsNameTopology(t *testing.T) {
	badChain := repro.Chain{}
	badSpider := repro.Spider{}
	badFork := repro.Fork{}
	badTree := repro.Tree{}
	okSpider := repro.NewSpider(repro.NewChain(1, 2))

	cases := []struct {
		name string
		kind string
		err  func() error
	}{
		{"ScheduleChain", "chain", func() error { _, err := repro.ScheduleChain(badChain, 3); return err }},
		{"ScheduleChainWithin", "chain", func() error { _, err := repro.ScheduleChainWithin(badChain, 3, 9); return err }},
		{"ChainThroughput", "chain", func() error { _, err := repro.ChainThroughput(badChain); return err }},
		{"ChainLowerBound", "chain", func() error { _, err := repro.ChainLowerBound(badChain, 3); return err }},
		{"ScheduleSpider", "spider", func() error { _, err := repro.ScheduleSpider(badSpider, 3); return err }},
		{"ScheduleSpiderWithin", "spider", func() error { _, err := repro.ScheduleSpiderWithin(badSpider, 3, 9); return err }},
		{"SpiderMinMakespan", "spider", func() error { _, _, err := repro.SpiderMinMakespan(badSpider, 3); return err }},
		{"SpiderMinMakespanZeroTasks", "spider", func() error { _, _, err := repro.SpiderMinMakespan(okSpider, 0); return err }},
		{"SpiderThroughput", "spider", func() error { _, err := repro.SpiderThroughput(badSpider); return err }},
		{"SpiderLowerBound", "spider", func() error { _, err := repro.SpiderLowerBound(badSpider, 3); return err }},
		{"ForkMinMakespan", "fork", func() error { _, _, err := repro.ForkMinMakespan(badFork, 3); return err }},
		{"ForkMaxTasks", "fork", func() error { _, err := repro.ForkMaxTasks(badFork, 3, 9); return err }},
		{"ScheduleTree", "tree", func() error { _, _, _, err := repro.ScheduleTree(badTree, 3); return err }},
		{"TreeThroughput", "tree", func() error { _, err := repro.TreeThroughput(badTree); return err }},
		{"TreeLowerBound", "tree", func() error { _, err := repro.TreeLowerBound(badTree, 3); return err }},
		{"NewSolverChain", "chain", func() error { _, err := repro.NewSolver(badChain); return err }},
		{"NewSolverSpider", "spider", func() error { _, err := repro.NewSolver(badSpider); return err }},
		{"NewSolverFork", "fork", func() error { _, err := repro.NewSolver(badFork); return err }},
		{"NewSolverTree", "tree", func() error { _, err := repro.NewSolver(badTree); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("expected an error")
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, tc.kind+": ") {
				t.Errorf("error %q does not start with %q", msg, tc.kind+": ")
			}
			if strings.HasPrefix(msg, tc.kind+": "+tc.kind+": ") {
				t.Errorf("error %q stutters the topology prefix", msg)
			}
		})
	}
}
