package spider

import (
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sched"
)

func smallSpider() platform.Spider {
	return platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
}

func TestScheduleWithinDegenerate(t *testing.T) {
	if _, err := coldScheduleWithin(platform.Spider{}, 3, 10); err == nil {
		t.Error("empty spider accepted")
	}
	if _, err := coldScheduleWithin(smallSpider(), -1, 10); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := coldScheduleWithin(smallSpider(), 3, -1); err == nil {
		t.Error("negative deadline accepted")
	}
	s, err := coldScheduleWithin(smallSpider(), 4, 0)
	if err != nil || s.Len() != 0 {
		t.Errorf("deadline 0: %v len=%d", err, s.Len())
	}
}

// coldScheduleWithin answers one deadline query on a fresh solver.
func coldScheduleWithin(sp platform.Spider, n int, deadline platform.Time) (*sched.SpiderSchedule, error) {
	s, err := NewSolver(sp)
	if err != nil {
		return nil, err
	}
	return s.ScheduleWithin(n, deadline)
}

func TestScheduleWithinHandChecked(t *testing.T) {
	// On the two-leg spider the optimal 2-task makespan is 7 (both
	// finish at 7; see the opt package hand check). Deadline 7 must fit
	// 2 tasks; deadline 6 fits only 1 (leg 1 alone: 1+4=5; 2 tasks by 6
	// impossible).
	sp := smallSpider()
	s, err := coldScheduleWithin(sp, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if s.Len() != 2 {
		t.Errorf("deadline 7 fits %d tasks, want 2", s.Len())
	}
	if s.Makespan() > 7 {
		t.Errorf("makespan %d overruns deadline 7", s.Makespan())
	}
	s, err = coldScheduleWithin(sp, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("deadline 6 fits %d tasks, want 1", s.Len())
	}
}

// TestTheorem3Exhaustive validates spider optimality against the
// exhaustive oracle over a grid of two-leg spiders and deadlines.
func TestTheorem3Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive validation skipped in -short mode")
	}
	// Legs drawn from all 1-node chains with values in [1,2] and the
	// 2-node chain (1,2,2,1); paired exhaustively.
	var legs []platform.Chain
	platform.EnumerateChains(1, 2, func(ch platform.Chain) bool {
		legs = append(legs, ch)
		return true
	})
	legs = append(legs, platform.NewChain(1, 2, 2, 1), platform.NewChain(2, 1, 1, 3))
	for _, a := range legs {
		for _, b := range legs {
			sp := platform.NewSpider(a.Clone(), b.Clone())
			for _, deadline := range []platform.Time{2, 4, 6, 9} {
				s, err := coldScheduleWithin(sp, 4, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("%v deadline %d: infeasible: %v", sp, deadline, err)
				}
				if s.Makespan() > deadline {
					t.Fatalf("%v deadline %d: makespan %d overruns", sp, deadline, s.Makespan())
				}
				want, err := opt.BruteSpiderMaxTasks(sp, 4, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != want {
					t.Fatalf("%v deadline %d: algorithm fits %d, optimum %d", sp, deadline, s.Len(), want)
				}
			}
		}
	}
}

// TestTheorem3MinMakespanExhaustive cross-validates the binary search
// against the brute-force optimal makespan.
func TestTheorem3MinMakespanExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive validation skipped in -short mode")
	}
	var legs []platform.Chain
	platform.EnumerateChains(1, 2, func(ch platform.Chain) bool {
		legs = append(legs, ch)
		return true
	})
	legs = append(legs, platform.NewChain(1, 2, 2, 1))
	for _, a := range legs {
		for _, b := range legs {
			sp := platform.NewSpider(a.Clone(), b.Clone())
			for n := 1; n <= 3; n++ {
				mk, s, err := MinMakespan(sp, n)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("%v n=%d: infeasible: %v", sp, n, err)
				}
				_, want, err := opt.BruteSpider(sp, n)
				if err != nil {
					t.Fatal(err)
				}
				if mk != want {
					t.Fatalf("%v n=%d: algorithm %d, optimum %d", sp, n, mk, want)
				}
			}
		}
	}
}

func TestMinMakespanRandomSpiders(t *testing.T) {
	g := platform.MustGenerator(808, 1, 5, platform.Uniform)
	for trial := 0; trial < 12; trial++ {
		sp := g.Spider(2, 2)
		n := 1 + trial%4
		mk, s, err := MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%v n=%d: infeasible: %v", sp, n, err)
		}
		if s.Makespan() > mk {
			t.Fatalf("makespan %d exceeds reported %d", s.Makespan(), mk)
		}
		_, want, err := opt.BruteSpider(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != want {
			t.Fatalf("%v n=%d: algorithm %d, optimum %d", sp, n, mk, want)
		}
	}
}

func TestSingleLegSpiderMatchesChainAlgorithm(t *testing.T) {
	// A one-leg spider is a chain; the spider algorithm must reproduce
	// the chain optimum (its port constraint coincides with link 1).
	g := platform.MustGenerator(19, 1, 8, platform.Bimodal)
	for trial := 0; trial < 10; trial++ {
		ch := g.Chain(1 + trial%4)
		n := 1 + trial%6
		chainSched, err := core.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		mk, _, err := MinMakespan(platform.NewSpider(ch), n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != chainSched.Makespan() {
			t.Fatalf("%v n=%d: spider %d, chain %d", ch, n, mk, chainSched.Makespan())
		}
	}
}

func TestMaxTasksMonotoneInDeadline(t *testing.T) {
	sp := platform.NewSpider(
		platform.NewChain(2, 3, 1, 2),
		platform.NewChain(1, 4),
		platform.NewChain(3, 1),
	)
	prev := 0
	for deadline := platform.Time(0); deadline <= 40; deadline += 2 {
		m, err := MaxTasks(sp, 50, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if m < prev {
			t.Fatalf("max tasks decreased from %d to %d at deadline %d", prev, m, deadline)
		}
		prev = m
	}
	if prev == 0 {
		t.Error("no tasks fit even at deadline 40")
	}
}

func TestScheduleLargerSpiderFeasible(t *testing.T) {
	g := platform.MustGenerator(3, 1, 10, platform.Bimodal)
	sp := g.Spider(4, 3)
	_, s, err := MinMakespan(sp, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 40 {
		t.Fatalf("scheduled %d tasks, want 40", s.Len())
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestScheduleZeroTasks: a zero-task query schedules nothing, whatever
// the deadline, and an empty spider is still rejected.
func TestScheduleZeroTasks(t *testing.T) {
	s, err := coldScheduleWithin(smallSpider(), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("n=0 scheduled %d tasks", s.Len())
	}
	if _, err := coldScheduleWithin(platform.Spider{}, 0, 100); err == nil {
		t.Error("empty spider accepted")
	}
}
