package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
)

func writeChainSchedule(t *testing.T, s *sched.ChainSchedule) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := sched.WriteChainSchedule(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyFeasibleChain(t *testing.T) {
	s, err := core.Schedule(platform.NewChain(2, 3, 3, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	path := writeChainSchedule(t, s)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "feasible: 5 tasks on 2 processors, makespan 14") {
		t.Errorf("output: %s", out.String())
	}
}

func TestVerifyInfeasibleChain(t *testing.T) {
	s, err := core.Schedule(platform.NewChain(2, 3, 3, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Tasks[0].Start = 0 // break condition 2
	path := writeChainSchedule(t, s)
	var out bytes.Buffer
	err = run([]string{path}, &out)
	if err == nil || !strings.Contains(err.Error(), "INFEASIBLE") {
		t.Errorf("infeasible schedule passed: %v", err)
	}
}

func TestVerifyFeasibleSpider(t *testing.T) {
	sp := platform.NewSpider(platform.NewChain(2, 3, 3, 5), platform.NewChain(1, 4))
	_, s, err := spider.MinMakespan(sp, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sp.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.WriteSpiderSchedule(f, s); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "feasible: 6 tasks on 2 legs") {
		t.Errorf("output: %s", out.String())
	}
}

func TestVerifyErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"/does/not/exist.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("]["), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("garbage file accepted")
	}
}
