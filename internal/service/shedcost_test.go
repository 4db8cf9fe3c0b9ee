package service

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/solve"
)

// saturate holds the only worker slot of a one-worker service and fills
// both wait queues, so every query that needs a slot sheds. The
// returned function undoes it.
func saturate(t *testing.T, svc *Service) func() {
	t.Helper()
	release, err := svc.adm.admit(context.Background(), 0, classCold, false)
	if err != nil {
		t.Fatal(err)
	}
	q := int64(svc.adm.queueMax)
	svc.adm.queuedWarm.Add(q)
	svc.adm.queuedCold.Add(q)
	return func() {
		svc.adm.queuedWarm.Add(-q)
		svc.adm.queuedCold.Add(-q)
		release()
	}
}

// kindRequest builds a /solve request for a platform of any kind.
func kindRequest(t *testing.T, p solve.Platform, op Op, n int, deadline platform.Time) *Request {
	t.Helper()
	req, err := NewRequest(p, op, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestDegradedBoundsMatchPlatform: a shed answer carries exactly the
// platform's own LowerBound or TasksUpperBound on every kind, whether
// the query came through a registered form (steady state computed once
// per form) or was parsed in full.
func TestDegradedBoundsMatchPlatform(t *testing.T) {
	g := platform.MustGenerator(11, 1, 9, platform.Uniform)
	for _, ps := range [][2]solve.Platform{
		{g.Chain(4), g.Chain(3)},
		{g.Spider(4, 3), g.Spider(3, 2)},
		{g.Fork(5), g.Fork(4)},
		{g.Tree(3, 2), g.Tree(2, 3)},
	} {
		warm, fresh := ps[0], ps[1]
		svc := New(Config{Workers: 1})
		for i := 0; i < 3; i++ {
			if _, err := svc.Solve(context.Background(), kindRequest(t, warm, OpMinMakespan, 2, 0)); err != nil {
				t.Fatal(err)
			}
		}
		undo := saturate(t, svc)
		hits := formHits(svc)
		for _, p := range []solve.Platform{warm, fresh} {
			for _, n := range []int{1, 5, 40} {
				lb, err := p.LowerBound(n)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := svc.Solve(context.Background(), kindRequest(t, p, OpMinMakespan, n, 0))
				if err != nil || !resp.Degraded || resp.Bound != BoundLower || resp.Makespan != lb {
					t.Fatalf("%s n=%d: shed min_makespan %+v, %v; want degraded lower bound %d", p.Kind(), n, resp, err, lb)
				}
				for _, dl := range []platform.Time{0, lb / 2, lb, 3 * lb} {
					ub, err := p.TasksUpperBound(n, dl)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := svc.Solve(context.Background(), kindRequest(t, p, OpMaxTasks, n, dl))
					if err != nil || !resp.Degraded || resp.Bound != BoundUpper || resp.Tasks != ub {
						t.Fatalf("%s n=%d deadline %d: shed max_tasks %+v, %v; want degraded upper bound %d", p.Kind(), n, dl, resp, err, ub)
					}
				}
			}
		}
		if got := formHits(svc) - hits; got != 15 {
			t.Errorf("%s: %d of the warm platform's 15 sheds came through its form", warm.Kind(), got)
		}
		undo()
	}
}

// TestFormHitShedAllocations pins the cost of a shed answer to a
// registered form of a 1024-leg spider: the steady state is computed
// once per form, so a repeat is one bound division. Recomputing the
// rate per shed costs about 27,000 allocations here.
func TestFormHitShedAllocations(t *testing.T) {
	wide := dupSpider(rand.New(rand.NewSource(3)), 1024, 6)
	svc := New(Config{Workers: 1})
	for i := 0; i < 3; i++ {
		if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, wide, OpMinMakespan, 8, 0)); err != nil {
			t.Fatal(err)
		}
	}
	defer saturate(t, svc)()
	for _, req := range []*Request{
		mustSpiderRequest(t, wide, OpMinMakespan, 256, 0),
		mustSpiderRequest(t, wide, OpMaxTasks, 256, 500),
	} {
		hits := formHits(svc)
		got := testing.AllocsPerRun(20, func() {
			resp, err := svc.Solve(context.Background(), req)
			if err != nil || !resp.Degraded {
				t.Fatalf("shed %s: %+v, %v", req.Op, resp, err)
			}
		})
		if formHits(svc) == hits {
			t.Fatalf("shed %s did not come through the form", req.Op)
		}
		if got > 16 {
			t.Errorf("form-hit shed %s: %.0f allocs, want at most 16", req.Op, got)
		}
		t.Logf("form-hit shed %s: %.0f allocs", req.Op, got)
	}
}

// TestConcurrentShedsShareSteadyState sheds one registered form from
// several goroutines at once (run it under -race): the first computes
// the form's steady state, every answer carries the platform's bound.
func TestConcurrentShedsShareSteadyState(t *testing.T) {
	sp := dupSpider(rand.New(rand.NewSource(4)), 64, 5)
	svc := New(Config{Workers: 1})
	for i := 0; i < 3; i++ {
		if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]*Request, 50)
	for i := range reqs {
		reqs[i] = mustSpiderRequest(t, sp, OpMinMakespan, 3+i, 0)
	}
	defer saturate(t, svc)()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(g*20+i)%len(reqs)]
				n := req.N
				want, err := sp.LowerBound(n)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := svc.Solve(context.Background(), req)
				if err != nil || !resp.Degraded || resp.Makespan != want {
					t.Errorf("n=%d: shed answer %+v, %v; want lower bound %d", n, resp, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
