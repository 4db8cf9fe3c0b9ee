// These tests compare the baseline heuristics and the steady-state
// lower bound against the optimal spider solver.
package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/platform"
	"repro/internal/spider"
)

func TestSpiderHeuristicsFeasibleAndDominatedByOptimal(t *testing.T) {
	g := platform.MustGenerator(71, 1, 9, platform.Uniform)
	scheds := []baseline.SpiderScheduler{baseline.SpiderGreedy{}, baseline.SpiderRoundRobin{}}
	for trial := 0; trial < 6; trial++ {
		sp := g.Spider(2+trial%3, 2)
		n := 6 + 4*trial
		mk, _, err := spider.MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scheds {
			s, err := sc.Schedule(sp, n)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name(), err)
			}
			if s.Len() != n {
				t.Fatalf("%s scheduled %d, want %d", sc.Name(), s.Len(), n)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("%s on %v: infeasible: %v", sc.Name(), sp, err)
			}
			if mk > s.Makespan() {
				t.Errorf("%v n=%d: optimal %d beaten by %s %d", sp, n, mk, sc.Name(), s.Makespan())
			}
		}
	}
}

func TestLowerBoundSpiderIsValid(t *testing.T) {
	g := platform.MustGenerator(17, 1, 6, platform.Uniform)
	for trial := 0; trial < 8; trial++ {
		sp := g.Spider(2+trial%2, 2)
		n := 2 + 3*trial
		lb, err := sp.LowerBound(n)
		if err != nil {
			t.Fatal(err)
		}
		// Against an UNSEEDED search: spider.MinMakespan seeds its
		// bisection with this very bound, so comparing against it would
		// be circular. Plain bisection over MaxTasks never reads it.
		mk := unseededMinMakespan(t, sp, n)
		if lb > mk {
			t.Errorf("%v n=%d: lower bound %d exceeds optimum %d", sp, n, lb, mk)
		}
	}
}

// unseededMinMakespan bisects [1, master-only makespan] for the
// smallest deadline at which spider.MaxTasks fits all n tasks.
func unseededMinMakespan(t *testing.T, sp platform.Spider, n int) platform.Time {
	t.Helper()
	lo, hi := platform.Time(1), sp.MasterOnlyMakespan(n)
	for lo < hi {
		mid := lo + (hi-lo)/2
		k, err := spider.MaxTasks(sp, n, mid)
		if err != nil {
			t.Fatal(err)
		}
		if k == n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
