package fork

import (
	"testing"

	"repro/internal/opt"
	"repro/internal/platform"
)

func twoSlaveFork() platform.Fork { return platform.NewFork(1, 3, 2, 2) }

func TestPackRejectsBadInputs(t *testing.T) {
	if _, err := Pack(nil, 3, -1); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := Pack(nil, -1, 5); err == nil {
		t.Error("negative count accepted")
	}
}

func TestPackEmptyAndZero(t *testing.T) {
	alloc, err := Pack(nil, 5, 100)
	if err != nil || len(alloc.Slaves) != 0 {
		t.Errorf("empty candidates: %v len=%d", err, len(alloc.Slaves))
	}
	vs := expandFork(twoSlaveFork(), 3)
	alloc, err = Pack(vs, 0, 100)
	if err != nil || len(alloc.Slaves) != 0 {
		t.Errorf("n=0: %v len=%d", err, len(alloc.Slaves))
	}
}

func TestPackHandChecked(t *testing.T) {
	// Slaves: A=(c=1,w=3), B=(c=2,w=2). Deadline 5, n=3.
	// Expansion: A -> (1,3),(1,6),(1,9); B -> (2,2),(2,4),(2,6).
	// Admission order (asc c, asc t): (1,3),(1,6),(1,9),(2,2),(2,4),(2,6).
	//   take (1,3): packing [ (1,3) ]: 1+3=4 <= 5 ok.
	//   try (1,6): order desc t: (1,6),(1,3): 1+6=7 > 5 reject.
	//   try (1,9): 1+9=10 > 5 reject.
	//   try (2,2): order (1,3),(2,2): 1+3=4 ok, 3+2=5 ok -> take.
	//   try (2,4): order (2,4),(1,3),(2,2): 2+4=6 > 5 reject.
	//   try (2,6): reject.
	// Result: 2 tasks, emission order (1,3) then (2,2).
	alloc, err := Pack(expandFork(twoSlaveFork(), 3), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Slaves) != 2 {
		t.Fatalf("admitted %d, want 2", len(alloc.Slaves))
	}
	first, second := alloc.Slaves[0], alloc.Slaves[1]
	if first.Leg != 0 || first.Proc != 3 || first.EmitStart != 0 {
		t.Errorf("first = %+v, want leg0 t=3 emit 0", first)
	}
	if second.Leg != 1 || second.Proc != 2 || second.EmitStart != 1 {
		t.Errorf("second = %+v, want leg1 t=2 emit 1", second)
	}
}

func TestPackEmissionsBackToBackAndDeadlineMet(t *testing.T) {
	vs := expandFork(platform.NewFork(1, 3, 2, 2, 1, 5), 6)
	alloc, err := Pack(vs, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	var at platform.Time
	for i, c := range alloc.Slaves {
		if c.EmitStart != at {
			t.Errorf("slave %d emitted at %d, want back-to-back %d", i, c.EmitStart, at)
		}
		at += c.Comm
		if end := c.EmitStart + c.Comm + c.Proc; end > 17 {
			t.Errorf("slave %d virtual completion %d exceeds deadline", i, end)
		}
	}
	// Emission order is by decreasing effective processing time.
	for i := 1; i < len(alloc.Slaves); i++ {
		if alloc.Slaves[i-1].Proc < alloc.Slaves[i].Proc {
			t.Errorf("emission order not by decreasing t: %v", alloc.Slaves)
		}
	}
}

func TestMaxTasksMatchesBruteForceExhaustively(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive validation skipped in -short mode")
	}
	// All 2-slave forks with values in [1,3], several deadlines.
	platform.EnumerateChains(2, 3, func(ch platform.Chain) bool {
		f := platform.Fork{Slaves: ch.Nodes}
		for _, deadline := range []platform.Time{2, 4, 6, 9, 13} {
			got, err := MaxTasks(f, 4, deadline)
			if err != nil {
				t.Fatal(err)
			}
			want, err := opt.BruteForkMaxTasks(f, 4, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v deadline %d: greedy %d, optimum %d", f, deadline, got, want)
			}
		}
		return true
	})
}

func TestMinMakespanMatchesBruteForceExhaustively(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive validation skipped in -short mode")
	}
	platform.EnumerateChains(2, 3, func(ch platform.Chain) bool {
		f := platform.Fork{Slaves: ch.Nodes}
		for n := 1; n <= 4; n++ {
			mk, s, err := MinMakespan(f, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("%v n=%d: infeasible: %v", f, n, err)
			}
			if s.Makespan() > mk {
				t.Fatalf("%v n=%d: schedule makespan %d exceeds reported %d", f, n, s.Makespan(), mk)
			}
			_, want, err := opt.BruteFork(f, n)
			if err != nil {
				t.Fatal(err)
			}
			if mk != want {
				t.Fatalf("%v n=%d: fork algorithm %d, optimum %d", f, n, mk, want)
			}
		}
		return true
	})
}

func TestMinMakespanRandomForks(t *testing.T) {
	g := platform.MustGenerator(404, 1, 7, platform.Bimodal)
	for trial := 0; trial < 15; trial++ {
		f := g.Fork(2 + trial%2)
		n := 1 + trial%4
		mk, s, err := MinMakespan(f, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%v n=%d: infeasible: %v", f, n, err)
		}
		_, want, err := opt.BruteFork(f, n)
		if err != nil {
			t.Fatal(err)
		}
		if mk != want {
			t.Fatalf("%v n=%d: fork algorithm %d, optimum %d", f, n, mk, want)
		}
	}
}

func TestScheduleWithinFeasibleAndWithinDeadline(t *testing.T) {
	g := platform.MustGenerator(11, 1, 9, platform.Uniform)
	for trial := 0; trial < 10; trial++ {
		f := g.Fork(3)
		deadline := platform.Time(10 + 5*trial)
		s, err := ScheduleWithin(f, 20, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%v deadline %d: infeasible: %v", f, deadline, err)
		}
		if s.Makespan() > deadline {
			t.Fatalf("%v: makespan %d exceeds deadline %d", f, s.Makespan(), deadline)
		}
	}
}

func TestRevertMeetsVirtualPromises(t *testing.T) {
	// The Fig. 6 expansion is sound in the prefix sense: a concrete task
	// may finish later than its own virtual promise (a low-rank task can
	// queue behind many earlier arrivals), but never later than the
	// largest promise among the tasks that arrived at its slave up to
	// and including itself — in particular never past the deadline.
	f := platform.NewFork(2, 5, 1, 3, 3, 2)
	const deadline = 30
	vs := expandFork(f, 8)
	alloc, err := Pack(vs, 8, deadline)
	if err != nil {
		t.Fatal(err)
	}
	s := revert(f, alloc)
	if err := s.Verify(); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if s.Len() != len(alloc.Slaves) {
		t.Fatalf("reverted %d tasks, allocation has %d", s.Len(), len(alloc.Slaves))
	}
	prefixMax := make([]platform.Time, f.Len())
	for i, c := range alloc.Slaves {
		task := s.Tasks[i]
		promise := c.EmitStart + c.Comm + c.Proc
		if promise > prefixMax[task.Leg] {
			prefixMax[task.Leg] = promise
		}
		finish := task.Start + f.Slaves[task.Leg].Work
		if finish > prefixMax[task.Leg] {
			t.Errorf("task %d finishes at %d, prefix-max promise %d (virtual %v)",
				i+1, finish, prefixMax[task.Leg], c.VirtualSlave)
		}
		if finish > deadline {
			t.Errorf("task %d finishes at %d, past the deadline", i+1, finish)
		}
	}
}

func TestMinMakespanDegenerate(t *testing.T) {
	if _, _, err := MinMakespan(platform.Fork{}, 3); err == nil {
		t.Error("empty fork accepted")
	}
	if _, _, err := MinMakespan(twoSlaveFork(), 0); err == nil {
		t.Error("n=0 accepted")
	}
	mk, s, err := MinMakespan(platform.NewFork(2, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if mk != 5 || s.Len() != 1 {
		t.Errorf("single slave single task: mk=%d len=%d, want 5,1", mk, s.Len())
	}
}

func TestExpandFork(t *testing.T) {
	f := platform.NewFork(2, 5, 1, 4)
	vs := expandFork(f, 3)
	if len(vs) != 6 {
		t.Fatalf("len = %d, want 6", len(vs))
	}
	// Slaves of leg 0 come first, then leg 1.
	for i, v := range vs[:3] {
		if v.Leg != 0 || v.Rank != i {
			t.Errorf("slave %d = %v, want leg 0 rank %d", i, v, i)
		}
	}
	for i, v := range vs[3:] {
		if v.Leg != 1 || v.Rank != i {
			t.Errorf("slave %d = %v, want leg 1 rank %d", i+3, v, i)
		}
	}
}
