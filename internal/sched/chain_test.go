package sched

import (
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
)

// fig2Chain is a two-processor fixture with c = (2, 3), w = (5, 3)
// (a variant of the paper's example; hand-checked values below depend
// on it).
func fig2Chain() platform.Chain { return platform.NewChain(2, 5, 3, 3) }

// handSchedule is a hand-checked feasible schedule of 3 tasks on the
// fixture chain:
//
//	task 1: emitted 0, link1 [0,2), runs on proc 1 [2,7)
//	task 2: emitted 2, link1 [2,4), link2 [4,7), runs on proc 2 [7,10)
//	task 3: emitted 4, link1 [4,6), buffered, runs on proc 1 [7,12)
func handSchedule() *ChainSchedule {
	return &ChainSchedule{
		Chain: fig2Chain(),
		Tasks: []ChainTask{
			{Proc: 1, Start: 2, Comms: []platform.Time{0}},
			{Proc: 2, Start: 7, Comms: []platform.Time{2, 4}},
			{Proc: 1, Start: 7, Comms: []platform.Time{4}},
		},
	}
}

func TestVerifyAcceptsHandSchedule(t *testing.T) {
	s := handSchedule()
	if err := s.Verify(); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
	if got := s.Makespan(); got != 12 {
		t.Errorf("Makespan = %d, want 12", got)
	}
	counts := s.Counts()
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("Counts = %v, want [2 1]", counts)
	}
}

func TestVerifyCondition1(t *testing.T) {
	s := handSchedule()
	// Re-emit task 2 on link 2 before its link-1 reception finishes at 4.
	s.Tasks[1].Comms[1] = 3
	err := s.Verify()
	if err == nil || !strings.Contains(err.Error(), "condition 1") {
		t.Fatalf("condition 1 violation not caught: %v", err)
	}
}

func TestVerifyCondition2(t *testing.T) {
	s := handSchedule()
	// Task 2 arrives at proc 2 at 4+3=7; start it at 6.
	s.Tasks[1].Start = 6
	err := s.Verify()
	if err == nil || !strings.Contains(err.Error(), "condition 2") {
		t.Fatalf("condition 2 violation not caught: %v", err)
	}
}

func TestVerifyCondition3(t *testing.T) {
	s := handSchedule()
	// Tasks 1 and 3 both on proc 1 (w=5); bring their starts within 5.
	s.Tasks[2].Start = 6
	// Keep condition 2 satisfied: arrival of task 3 is 4+2=6 <= 6.
	err := s.Verify()
	if err == nil || !strings.Contains(err.Error(), "condition 3") {
		t.Fatalf("condition 3 violation not caught: %v", err)
	}
}

func TestVerifyCondition4(t *testing.T) {
	s := handSchedule()
	// Emit task 3 on link 1 (c=2) only 1 after task 2.
	s.Tasks[2].Comms[0] = 3
	s.Tasks[2].Start = 7
	err := s.Verify()
	if err == nil || !strings.Contains(err.Error(), "condition 4") {
		t.Fatalf("condition 4 violation not caught: %v", err)
	}
}

func TestVerifyStructuralErrors(t *testing.T) {
	s := handSchedule()
	s.Tasks[0].Proc = 3
	if err := s.Verify(); err == nil {
		t.Error("out-of-range processor accepted")
	}

	s = handSchedule()
	s.Tasks[1].Comms = []platform.Time{2} // wrong length
	if err := s.Verify(); err == nil {
		t.Error("wrong communication vector length accepted")
	}

	s = handSchedule()
	s.Tasks[0].Comms[0] = -1
	s.Tasks[0].Start = 1
	if err := s.Verify(); err == nil {
		t.Error("negative emission accepted")
	}

	s = &ChainSchedule{Chain: platform.Chain{}}
	if err := s.Verify(); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestVerifyEmptyScheduleOK(t *testing.T) {
	s := &ChainSchedule{Chain: fig2Chain()}
	if err := s.Verify(); err != nil {
		t.Errorf("empty schedule rejected: %v", err)
	}
	if s.Makespan() != 0 {
		t.Errorf("empty makespan = %d", s.Makespan())
	}
}

func TestShiftPreservesFeasibilityAndMakespanDelta(t *testing.T) {
	s := handSchedule()
	mk := s.Makespan()
	s.Shift(10)
	if err := s.Verify(); err != nil {
		t.Fatalf("shifted schedule infeasible: %v", err)
	}
	if got := s.Makespan(); got != mk+10 {
		t.Errorf("shifted makespan = %d, want %d", got, mk+10)
	}
	s.Shift(-10)
	if got := s.Makespan(); got != mk {
		t.Errorf("unshifted makespan = %d, want %d", got, mk)
	}
}

func TestNormalizeOrdersByEmission(t *testing.T) {
	s := handSchedule()
	// Scramble.
	s.Tasks[0], s.Tasks[2] = s.Tasks[2], s.Tasks[0]
	s.Normalize()
	for i := 1; i < len(s.Tasks); i++ {
		if s.Tasks[i-1].Comms[0] > s.Tasks[i].Comms[0] {
			t.Fatalf("not ordered by emission: %v", s.Tasks)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := handSchedule()
	c := s.Clone()
	c.Tasks[0].Comms[0] = 99
	c.Chain.Nodes[0].Comm = 99
	if s.Tasks[0].Comms[0] == 99 || s.Chain.Nodes[0].Comm == 99 {
		t.Error("Clone shares storage")
	}
}

func TestIntervalsMatchScheduleAndHaveNoOverlap(t *testing.T) {
	s := handSchedule()
	ivs := s.Intervals()
	if err := trace.CheckOverlaps(ivs); err != nil {
		t.Fatalf("feasible schedule produced overlapping intervals: %v", err)
	}
	// Task 3 waits on proc 1 from its arrival at 6 until 7.
	var foundWait bool
	for _, iv := range ivs {
		if iv.Kind == trace.Wait {
			foundWait = true
			if iv.Task != 3 || iv.Start != 6 || iv.End != 7 || iv.Resource != "proc 1" {
				t.Errorf("unexpected wait interval %v", iv)
			}
		}
	}
	if !foundWait {
		t.Error("buffered task produced no wait interval")
	}
	// Span covers [0, makespan].
	start, end, ok := trace.Span(ivs)
	if !ok || start != 0 || end != s.Makespan() {
		t.Errorf("Span = [%d,%d] ok=%v, want [0,%d]", start, end, ok, s.Makespan())
	}
}

func TestStringMentionsEveryTask(t *testing.T) {
	s := handSchedule()
	str := s.String()
	for _, frag := range []string{"task 1", "task 2", "task 3", "makespan 12"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() missing %q:\n%s", frag, str)
		}
	}
}
