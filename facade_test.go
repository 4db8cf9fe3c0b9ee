package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/spider"
	"repro/internal/tree"
)

// TestUnifiedSolverChainEquivalence: the unified Solver, reusing one
// warmed plan across queries, must answer chain queries identically to
// a fresh plan per query (core.Schedule, core.ScheduleWithin): same
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
		want, err := core.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != want.Makespan() {
			t.Fatalf("trial %d: solver makespan %d, core.Schedule %d", trial, mk, want.Makespan())
		}
		if !got.(*repro.ChainSchedule).Equal(want) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}

		dl := want.Makespan() * 2 / 3
		wantW, err := core.ScheduleWithin(ch, n, dl)
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
// unified Solver produce schedules identical to fresh spider engines.
func TestUnifiedSolverSpiderEquivalence(t *testing.T) {
	g := platform.MustGenerator(202, 1, 9, platform.Bimodal)
	for trial := 0; trial < 20; trial++ {
		sp := g.Spider(2+trial%4, 3)
		n := 1 + (trial*7)%30
		s, err := repro.NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		wantMk, wantSch, err := spider.MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("trial %d: solver makespan %d, spider engine %d", trial, mk, wantMk)
		}
		if !got.(*repro.SpiderSchedule).Equal(wantSch) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}
		fresh, err := spider.NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		wantW, err := fresh.ScheduleWithin(n, wantMk-1)
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

// TestForkFacadeMatchesSolver: NewSolver(f) answers as the spider
// engine on the fork's spider form: the same schedule, not merely the
// same makespan, and the same task counts. (internal/fork's
// TestUnifiedSolverForkEquivalence holds that engine to the Fig. 6
// expansion oracle on the same forks.)
func TestForkFacadeMatchesSolver(t *testing.T) {
	g := platform.MustGenerator(303, 1, 9, platform.Uniform)
	for trial := 0; trial < 20; trial++ {
		f := g.Fork(2 + trial%5)
		n := 1 + (trial*11)%30
		s, err := repro.NewSolver(f)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := spider.NewSolver(f.Spider())
		if err != nil {
			t.Fatal(err)
		}
		gotMk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		mk, sch, err := engine.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if gotMk != mk || !got.(*repro.SpiderSchedule).Equal(sch) {
			t.Fatalf("trial %d: facade makespan %d, spider engine %d, or their schedules diverge", trial, gotMk, mk)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		for _, dl := range []repro.Time{mk, mk - 1, mk / 2} {
			want, err := engine.MaxTasks(n, dl)
			if err != nil {
				t.Fatal(err)
			}
			k, err := s.MaxTasks(n, dl)
			if err != nil {
				t.Fatal(err)
			}
			if k != want {
				t.Fatalf("trial %d deadline %d: facade MaxTasks %d, spider engine %d", trial, dl, k, want)
			}
		}
	}
}

// TestUnifiedSolverTreeEquivalence: tree queries through the unified
// Solver are identical to the one-shot tree engine (tree.Schedule); the
// service asserts the same over HTTP.
func TestUnifiedSolverTreeEquivalence(t *testing.T) {
	g := platform.MustGenerator(404, 1, 9, platform.Uniform)
	for trial := 0; trial < 15; trial++ {
		tr := g.Tree(3, 3)
		n := 1 + (trial*9)%25
		s, err := repro.NewSolver(tr)
		if err != nil {
			t.Fatal(err)
		}
		wantMk, wantSch, _, err := tree.Schedule(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, got, err := s.MinMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("trial %d: solver makespan %d, tree.Schedule %d", trial, mk, wantMk)
		}
		if !got.(*repro.SpiderSchedule).Equal(wantSch) {
			t.Fatalf("trial %d: schedules diverge", trial)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
	}
}

// TestPlatformInterfaceAgreesWithFlatFacade: the Platform methods
// agree with the package-level fingerprints and across equivalent
// forms: a chain and its one-leg spider, a spider and its tree
// embedding, a fork and its spider form.
func TestPlatformInterfaceAgreesWithFlatFacade(t *testing.T) {
	ch := repro.NewChain(2, 5, 3, 3)
	sp := repro.NewSpider(ch, repro.NewChain(1, 4))
	f := repro.NewFork(1, 3, 2, 2)
	tr := platform.TreeFromSpider(sp)

	if got, want := ch.Hash(), platform.HashChain(ch); got != want {
		t.Error("chain Hash() diverges from HashChain")
	}
	if got, want := sp.Hash(), platform.HashSpider(sp); got != want {
		t.Error("spider Hash() diverges from HashSpider")
	}
	if got, want := f.Hash(), platform.HashFork(f); got != want {
		t.Error("fork Hash() diverges from HashFork")
	}
	if got, want := tr.Hash(), platform.HashTree(tr); got != want {
		t.Error("tree Hash() diverges from HashTree")
	}
	if tr.Hash() != sp.Hash() {
		t.Error("spider-shaped tree must hash as the spider it embeds")
	}

	pairs := []struct {
		name string
		a, b repro.Platform
	}{
		{"chain/one-leg spider", ch, repro.NewSpider(ch)},
		{"spider/tree embedding", sp, tr},
		{"fork/spider form", f, f.Spider()},
	}
	for _, pr := range pairs {
		ra, err := pr.a.Throughput()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := pr.b.Throughput()
		if err != nil {
			t.Fatal(err)
		}
		if ra.Cmp(rb) != 0 {
			t.Errorf("%s: Throughput %s vs %s", pr.name, ra.RatString(), rb.RatString())
		}
		la, err := pr.a.LowerBound(10)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := pr.b.LowerBound(10)
		if err != nil {
			t.Fatal(err)
		}
		if la != lb {
			t.Errorf("%s: LowerBound %d vs %d", pr.name, la, lb)
		}
	}

	kinds := map[string]repro.Platform{"chain": ch, "spider": sp, "fork": f, "tree": tr}
	for want, p := range kinds {
		if p.Kind() != want {
			t.Errorf("Kind() = %q, want %q", p.Kind(), want)
		}
	}
}

// TestFacadeErrorsNameTopology: every facade error names its topology
// exactly once, at the front: construction errors from NewSolver and
// query errors from the solver alike, since the shared solver layer
// decides the prefix for every entry point. The rows named after the
// deleted per-topology functions exercise the solver query that
// replaced each; the tree's Platform methods carry the prefix too.
func TestFacadeErrorsNameTopology(t *testing.T) {
	badChain := repro.Chain{}
	badSpider := repro.Spider{}
	badFork := repro.Fork{}
	badTree := repro.Tree{}
	okChain := repro.NewChain(2, 5, 3, 3)
	okSpider := repro.NewSpider(repro.NewChain(1, 2))
	okFork := repro.NewFork(1, 3, 2, 2)
	okTree := platform.TreeFromSpider(repro.NewSpider(okChain, repro.NewChain(1, 4)))
	minMakespan := func(p repro.Platform, n int) func() error {
		return func() error { _, _, err := solverFor(t, p).MinMakespan(n); return err }
	}

	cases := []struct {
		name string
		kind string
		err  func() error
	}{
		{"ScheduleChain", "chain", minMakespan(okChain, 0)},
		{"ScheduleChainWithin", "chain", func() error { _, err := solverFor(t, okChain).ScheduleWithin(-1, 9); return err }},
		{"ScheduleSpider", "spider", minMakespan(okSpider, -1)},
		{"ScheduleSpiderWithin", "spider", func() error { _, err := solverFor(t, okSpider).ScheduleWithin(3, -1); return err }},
		{"SpiderMinMakespan", "spider", func() error { _, err := solverFor(t, okSpider).MaxTasks(-1, 5); return err }},
		{"SpiderMinMakespanZeroTasks", "spider", minMakespan(okSpider, 0)},
		{"ForkMinMakespan", "fork", minMakespan(okFork, 0)},
		{"ForkMaxTasks", "fork", func() error { _, err := solverFor(t, okFork).MaxTasks(-1, 5); return err }},
		{"ScheduleTree", "tree", minMakespan(okTree, 0)},
		{"TreeThroughput", "tree", func() error { _, err := badTree.Throughput(); return err }},
		{"TreeLowerBound", "tree", func() error { _, err := badTree.LowerBound(3); return err }},
		{"NewSolverChain", "chain", func() error { _, err := repro.NewSolver(badChain); return err }},
		{"NewSolverSpider", "spider", func() error { _, err := repro.NewSolver(badSpider); return err }},
		{"NewSolverFork", "fork", func() error { _, err := repro.NewSolver(badFork); return err }},
		{"NewSolverTree", "tree", func() error { _, err := repro.NewSolver(badTree); return err }},
		{"ChainMaxTasks", "chain", func() error { _, err := solverFor(t, okChain).MaxTasks(3, -1); return err }},
		{"TreeMaxTasks", "tree", func() error { _, err := solverFor(t, okTree).MaxTasks(-1, 5); return err }},
		{"TreeScheduleWithin", "tree", func() error { _, err := solverFor(t, okTree).ScheduleWithin(3, -1); return err }},
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
