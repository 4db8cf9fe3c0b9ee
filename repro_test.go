package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

// solverFor builds the warmed solver for p or fails the test.
func solverFor(t *testing.T, p repro.Platform) repro.Solver {
	t.Helper()
	s, err := repro.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build the Fig. 2 chain,
	// schedule five tasks, verify, render.
	ch := repro.NewChain(2, 5, 3, 3)
	mk, s, err := solverFor(t, ch).MinMakespan(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("optimal schedule must verify: %v", err)
	}
	if mk <= 0 || s.Makespan() != mk {
		t.Fatalf("makespan = %d, schedule's %d", mk, s.Makespan())
	}
	chart := repro.GanttASCII(s.Intervals(), 1)
	if !strings.Contains(chart, "proc 1") {
		t.Errorf("chart missing rows:\n%s", chart)
	}
	svg := repro.GanttSVG(s.Intervals(), 8)
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("SVG rendering broken")
	}
}

func TestSpiderFacade(t *testing.T) {
	sp := repro.NewSpider(
		repro.NewChain(2, 5, 3, 3),
		repro.NewChain(1, 4),
	)
	s := solverFor(t, sp)
	mk, sch, err := s.MinMakespan(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if sch.Makespan() > mk {
		t.Errorf("schedule makespan %d exceeds optimum %d", sch.Makespan(), mk)
	}
	within, err := s.ScheduleWithin(6, mk-1)
	if err != nil {
		t.Fatal(err)
	}
	if within.Len() >= 6 {
		t.Errorf("deadline mk-1 still fits %d tasks", within.Len())
	}
}

func TestForkFacade(t *testing.T) {
	f := repro.NewFork(1, 3, 2, 2)
	s := solverFor(t, f)
	mk, sch, err := s.MinMakespan(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Verify(); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	m, err := s.MaxTasks(10, mk)
	if err != nil {
		t.Fatal(err)
	}
	if m < 4 {
		t.Errorf("at the 4-task optimum %d only %d tasks fit", mk, m)
	}
}

func TestBoundsFacade(t *testing.T) {
	ch := repro.NewChain(2, 5, 3, 3)
	rate, err := ch.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if rate.Sign() <= 0 {
		t.Error("non-positive throughput")
	}
	lb, err := ch.LowerBound(20)
	if err != nil {
		t.Fatal(err)
	}
	mk, _, err := solverFor(t, ch).MinMakespan(20)
	if err != nil {
		t.Fatal(err)
	}
	if lb > mk {
		t.Errorf("lower bound %d exceeds optimum %d", lb, mk)
	}

	sp := repro.NewSpider(ch, repro.NewChain(1, 4))
	if _, err := sp.Throughput(); err != nil {
		t.Fatal(err)
	}
	slb, err := sp.LowerBound(20)
	if err != nil {
		t.Fatal(err)
	}
	smk, _, err := solverFor(t, sp).MinMakespan(20)
	if err != nil {
		t.Fatal(err)
	}
	if slb > smk {
		t.Errorf("spider lower bound %d exceeds optimum %d", slb, smk)
	}
}

func TestChainWithinFacade(t *testing.T) {
	s := solverFor(t, repro.NewChain(2, 5, 3, 3))
	mk, _, err := s.MinMakespan(5)
	if err != nil {
		t.Fatal(err)
	}
	within, err := s.ScheduleWithin(5, mk)
	if err != nil {
		t.Fatal(err)
	}
	if within.Len() != 5 {
		t.Errorf("deadline = optimum fits %d tasks, want 5", within.Len())
	}
}

func TestIntervalCSVExport(t *testing.T) {
	_, s, err := solverFor(t, repro.NewChain(2, 5)).MinMakespan(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteIntervalsCSV(&buf, s.Intervals()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "resource,task,kind,start,end\n") {
		t.Errorf("CSV header missing:\n%s", buf.String())
	}
}
