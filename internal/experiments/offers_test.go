package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/spider"
)

// workCounts is the solver work of some queries, as spider.ProbeStats
// counts it, and the distinct leg plans a spider solver owns.
type workCounts struct {
	probes, packs        int
	offered, constructed int64
	plans                int
}

func (w workCounts) sub(prev workCounts) workCounts {
	return workCounts{
		probes:      w.probes - prev.probes,
		packs:       w.packs - prev.packs,
		offered:     w.offered - prev.offered,
		constructed: w.constructed - prev.constructed,
		plans:       w.plans - prev.plans,
	}
}

// workPin is what the gate pins for one cell: the work of its cold
// operation and, on a warm cell, the work and the allocations of
// warmRuns+1 repeats on the warmed path (testing.AllocsPerRun's run
// count, its warm-up run included). On E5-chain it also pins the
// allocations of the cold operation itself.
type workPin struct {
	cold, warm workCounts
	allocs     float64 // per warm repeat
	coldAllocs float64 // per cold operation
}

const warmRuns = 20

// gateName names a cell's subtest: by leg count and n on a spider, by n
// on a chain or tree.
func (c benchCell) gateName() string {
	if sp, ok := c.p.(platform.Spider); ok {
		return fmt.Sprintf("%s/legs=%d/n=%d", c.family, sp.NumLegs(), c.n)
	}
	return fmt.Sprintf("%s/n=%d", c.family, c.n)
}

// work runs the cell's operation in-process and counts its work. A
// cold cell is one min-makespan on a fresh solver. A warm cell repeats
// its warm path on the warmed state: the E5p-loop walk on the warmed
// spider solver; for E5-chain, which times a cold min-makespan on a
// fresh solve.New(chain), the production chain solver, the same
// min-makespan repeated on that solver once warmed, and the cold
// operation's own allocations; for the SVC cells, Service.Solve
// without the HTTP hop.
func (c benchCell) work(t *testing.T) workPin {
	t.Helper()
	var (
		pin   workPin
		warm  func()
		stats func() workCounts
	)
	switch c.op {
	case opSchedule:
		ch := c.p.(platform.Chain)
		pin.coldAllocs = testing.AllocsPerRun(warmRuns, func() {
			if err := coldChainSolve(ch, c.n, nil); err != nil {
				t.Fatal(err)
			}
		})
		s, err := solve.New(ch)
		if err != nil {
			t.Fatal(err)
		}
		stats = func() workCounts { return countsOf(s.Stats(), 0) }
		warm = func() {
			if _, _, err := s.MinMakespan(c.n); err != nil {
				t.Fatal(err)
			}
		}
		warm()
	case opCold, opWalk:
		s, walk, err := warmWalk(c.p.(platform.Spider), c.n)
		if err != nil {
			t.Fatal(err)
		}
		stats = func() workCounts { return countsOf(s.Stats(), s.DistinctLegPlans()) }
		if c.op == opCold {
			pin.cold = stats()
			return pin
		}
		warm = func() {
			if err := runWalk(s, c.n, walk); err != nil {
				t.Fatal(err)
			}
		}
	case opServeRepeat, opServeWalk:
		svc := service.New(service.Config{})
		req, err := service.NewRequest(c.p, service.OpMinMakespan, c.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		var total workCounts
		stats = func() workCounts { return total }
		ask := func() *service.Response {
			resp, err := svc.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if cost := resp.Meta.Cost; cost != nil {
				total.probes += cost.Probes
				total.packs += cost.PackProbes
				total.offered += cost.Offered
				total.constructed += cost.Constructed
			}
			return resp
		}
		opt := ask()
		warm = func() { ask() }
		if c.op == opServeWalk {
			req.Op = service.OpMaxTasks
			rep := 0
			warm = func() {
				req.Deadline = max(opt.Makespan-platform.Time(rep), 1)
				rep++
				ask()
			}
		}
	default:
		t.Fatalf("no work counter for op %d", c.op)
	}
	pin.cold = stats()
	pin.allocs = testing.AllocsPerRun(warmRuns, warm)
	pin.warm = stats().sub(pin.cold)
	return pin
}

func countsOf(st spider.ProbeStats, plans int) workCounts {
	return workCounts{probes: st.Probes, packs: st.PackProbes, offered: st.Offered, constructed: st.Constructed, plans: plans}
}

// TestOfferCountsPinned is the deterministic perf gate over the msbench
// -json cells (benchCells): each cell's operation must do exactly the
// pinned work — feasibility probes, packing probes, packer offers,
// backward placements and distinct leg plans — and each warm path must
// construct nothing and make exactly the pinned allocations. Unlike a
// wall-clock guard it cannot pass or fail with host load, and it
// catches the regressions such a guard was for: the reference solver,
// leg dedup off, the packer ceiling off, a warm chain query rebuilding
// its plan, a warm service repeat re-parsing its platform. The counts
// do not depend on GOMAXPROCS: parallel leg growth builds the same
// plans in any schedule. SVC-coalesce is left out: how many of its
// requests coalesce depends on timing, and the service's coalescing
// tests cover that path.
func TestOfferCountsPinned(t *testing.T) {
	// w lists one workCounts: probes, packing probes, offers,
	// placements, distinct plans.
	w := func(probes, packs int, offered, constructed int64, plans int) workCounts {
		return workCounts{probes, packs, offered, constructed, plans}
	}
	pins := map[string]workPin{
		"E5-chain/n=512":                   {cold: w(0, 0, 0, 512, 0), allocs: 514, coldAllocs: 1046},
		"E5-chain/n=2048":                  {cold: w(0, 0, 0, 2048, 0), allocs: 2050, coldAllocs: 4121},
		"E5c-spider/legs=4/n=32":           {cold: w(1, 2, 65, 80, 4)},
		"E5c-spider/legs=4/n=128":          {cold: w(1, 2, 257, 320, 4)},
		"E5c-spider/legs=4/n=512":          {cold: w(1, 2, 1025, 1280, 4)},
		"E5w-wide/legs=256/n=512":          {cold: w(6, 7, 3590, 5868, 255)},
		"E5w-wide/legs=256/n=1024":         {cold: w(6, 7, 7174, 11760, 255)},
		"E5p-loop/legs=256/n=512":          {cold: w(6, 7, 3590, 5868, 255), warm: w(0, 126, 64155, 0, 0), allocs: 12},
		"E5p-loop/legs=1024/n=512":         {cold: w(4, 5, 2565, 21788, 1010), warm: w(0, 126, 64134, 0, 0), allocs: 12},
		"E6-cold-dup/legs=256/n=512":       {cold: w(8, 9, 4616, 1024, 2)},
		"E6-cold-dup/legs=1024/n=512":      {cold: w(8, 9, 4608, 1024, 2)},
		"E6-cold-distinct/legs=256/n=512":  {cold: w(1, 2, 1025, 20256, 256)},
		"E6-cold-distinct/legs=1024/n=512": {cold: w(1, 2, 1025, 46848, 1024)},
		"SVC-warm/legs=4/n=128":            {cold: w(1, 2, 257, 320, 0), allocs: 8},
		"SVC-warm/legs=4/n=512":            {cold: w(1, 2, 1025, 1280, 0), allocs: 8},
		"SVC-tree/n=128":                   {cold: w(6, 7, 898, 256, 0), warm: w(0, 21, 2648, 0, 0), allocs: 14},
		"SVC-tree/n=512":                   {cold: w(6, 7, 3588, 1024, 0), warm: w(0, 21, 10697, 0, 0), allocs: 14},
	}
	seen := map[string]bool{}
	for _, c := range benchCells() {
		if c.op == opServeFanIn {
			continue
		}
		name := c.gateName()
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			got := c.work(t)
			if got.warm.constructed != 0 {
				t.Errorf("warm path constructed %d placements, want 0", got.warm.constructed)
			}
			if sp, ok := c.p.(platform.Spider); ok {
				per := int64(c.n + sp.NumLegs())
				for _, w := range []workCounts{got.cold, got.warm} {
					if w.offered > int64(w.packs)*per {
						t.Errorf("%d offers over %d packing probes, want ≤ %d per probe (n + legs)", w.offered, w.packs, per)
					}
				}
			}
			if want, ok := pins[name]; !ok || got != want {
				t.Errorf("work %+v, pinned %+v", got, want)
			}
		})
	}
	for name := range pins {
		if !seen[name] {
			t.Errorf("pin %s names no bench cell", name)
		}
	}
}
