package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
)

func chainsEqual(a, b platform.Chain) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// remapLegsQuadratic is the reference leg remap: every cached leg, in
// order, takes the first unused equal leg of the requested order.
func remapLegsQuadratic(sch *sched.SpiderSchedule, from, to platform.Spider) error {
	perm := make([]int, len(from.Legs))
	used := make([]bool, len(to.Legs))
	for i, leg := range from.Legs {
		perm[i] = -1
		for j, cand := range to.Legs {
			if !used[j] && chainsEqual(leg, cand) {
				perm[i], used[j] = j, true
				break
			}
		}
		if perm[i] < 0 {
			return fmt.Errorf("no leg of the requested spider matches cached leg %d", i)
		}
	}
	sch.Spider = to
	for t := range sch.Tasks {
		sch.Tasks[t].Leg = perm[sch.Tasks[t].Leg]
	}
	return nil
}

// dupSpider draws a spider of the given width from a few leg shapes, so
// equal legs recur and the remap's tie order matters.
func dupSpider(rng *rand.Rand, legs, shapes int) platform.Spider {
	pool := make([]platform.Chain, shapes)
	for i := range pool {
		cw := make([]platform.Time, 2*(1+rng.Intn(3)))
		for k := range cw {
			cw[k] = platform.Time(1 + rng.Intn(9))
		}
		pool[i] = platform.NewChain(cw...)
	}
	sp := platform.Spider{Legs: make([]platform.Chain, legs)}
	for i := range sp.Legs {
		sp.Legs[i] = pool[rng.Intn(shapes)]
	}
	return sp
}

func permuted(rng *rand.Rand, sp platform.Spider) platform.Spider {
	out := platform.Spider{Legs: make([]platform.Chain, len(sp.Legs))}
	for i, j := range rng.Perm(len(sp.Legs)) {
		out.Legs[j] = sp.Legs[i]
	}
	return out
}

func TestRemapLegsMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		from := dupSpider(rng, 1+rng.Intn(40), 1+rng.Intn(5))
		to := permuted(rng, from)
		sch := &sched.SpiderSchedule{Spider: from}
		for k := 0; k < 3*len(from.Legs); k++ {
			sch.Tasks = append(sch.Tasks, sched.SpiderTask{Leg: rng.Intn(len(from.Legs))})
		}
		want := sch.Clone()
		if err := remapLegsQuadratic(want, from, to); err != nil {
			t.Fatal(err)
		}
		if err := remapLegs(sch, from, to); err != nil {
			t.Fatal(err)
		}
		if !sch.Equal(want) {
			t.Fatalf("trial %d: remap differs from the quadratic reference", trial)
		}
	}
	// A leg missing from the requested order is the service's bug.
	from := platform.NewSpider(platform.NewChain(1, 2), platform.NewChain(3, 4))
	to := platform.NewSpider(platform.NewChain(3, 4), platform.NewChain(1, 5))
	if err := remapLegs(&sched.SpiderSchedule{}, from, to); err == nil {
		t.Error("remap of mismatched legs succeeded")
	}
}

// TestPermutedWideSpiderScheduleWithin answers schedule_within on a
// leg-permuted 1024-leg spider from the entry its first-seen order
// built, and requires the exact bytes the quadratic remap of the cached
// solver's schedule encodes to.
func TestPermutedWideSpiderScheduleWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	first := dupSpider(rng, 1024, 6)
	perm := permuted(rng, first)
	const n = 256
	lb, err := first.LowerBound(n)
	if err != nil {
		t.Fatal(err)
	}
	dl := lb * 3 / 2

	svc := New(Config{})
	ctx := context.Background()
	if _, err := svc.Solve(ctx, mustSpiderRequest(t, first, OpMaxTasks, n, dl)); err != nil {
		t.Fatal(err)
	}
	req := mustSpiderRequest(t, perm, OpScheduleWithin, n, dl)
	req.IncludeSchedule = true
	resp, err := svc.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Meta.Cache != "hit" {
		t.Fatalf("permuted spider answered with cache %q, want a hit on the first-seen entry", resp.Meta.Cache)
	}

	solver, err := spider.NewSolver(first)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := solver.ScheduleWithin(n, dl)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Len() == 0 {
		t.Fatal("schedule_within scheduled no task; the deadline is too tight to test the remap")
	}
	if err := remapLegsQuadratic(sch, first, perm); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sched.WriteSpiderSchedule(&want, sch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Schedule, want.Bytes()) {
		t.Fatal("remapped schedule differs from the quadratic reference")
	}
}
