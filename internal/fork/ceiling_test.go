package fork

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/platform"
)

// probeLeg is one origin's candidate run for the walk driver: constant
// Comm, ascending Proc, Rank = index — the shape spider legs and fork
// slaves produce. The run present at deadline d is the prefix with
// Comm+Proc ≤ d, which grows and shrinks monotonically with d exactly
// like a leg's fit count.
type probeLeg []platform.VirtualSlave

// makeProbeLegs draws random runs; Proc strictly ascends within a leg
// (as emissions strictly decrease in a real leg plan).
func makeProbeLegs(r *rand.Rand) []probeLeg {
	legs := make([]probeLeg, 1+r.Intn(5))
	for b := range legs {
		comm := platform.Time(1 + r.Intn(8))
		proc := platform.Time(1 + r.Intn(8))
		run := r.Intn(8)
		for k := 0; k < run; k++ {
			legs[b] = append(legs[b], platform.VirtualSlave{Comm: comm, Proc: proc, Leg: b, Rank: k})
			proc += platform.Time(1 + r.Intn(6))
		}
	}
	return legs
}

// legCount returns how many of the leg's candidates are present at the
// deadline.
func legCount(leg probeLeg, deadline platform.Time) int {
	k := 0
	for k < len(leg) && leg[k].Comm+leg[k].Proc <= deadline {
		k++
	}
	return k
}

// walkStep is one probe of a deadline walk.
type walkStep struct {
	n        int
	deadline platform.Time
}

// offerRetiring feeds the admission-order stream into p the way the
// spider probe does: an origin retires at its first rejection, and a
// candidate whose Proc reaches the packer's ceiling retires its origin
// without an offer. It returns the number of offers made.
func offerRetiring(p *Packer, stream []platform.VirtualSlave, origins int) int {
	retired := make([]bool, origins)
	offers := 0
	for _, v := range stream {
		if p.Full() {
			break
		}
		if retired[v.Leg] {
			continue
		}
		if v.Proc >= p.Ceiling() {
			retired[v.Leg] = true
			continue
		}
		offers++
		if !p.Offer(v) {
			retired[v.Leg] = true
		}
	}
	return offers
}

// insertByProc returns a copy of the emission-ordered selection with
// cand inserted after every entry of Proc ≥ cand.Proc.
func insertByProc(selected []platform.VirtualSlave, cand platform.VirtualSlave) []platform.VirtualSlave {
	pos := sort.Search(len(selected), func(i int) bool { return selected[i].Proc < cand.Proc })
	trial := make([]platform.VirtualSlave, 0, len(selected)+1)
	trial = append(trial, selected[:pos]...)
	trial = append(trial, cand)
	return append(trial, selected[pos:]...)
}

// specRespectsCeiling runs the packFeasible spec greedy over the stream
// and fails if it ever admits a candidate whose Proc is at or above the
// lowest Proc it has already rejected — the ceiling lemma, checked on
// the specification itself rather than on the packer that relies on it.
func specRespectsCeiling(t *testing.T, label string, stream []platform.VirtualSlave, n int, deadline platform.Time) {
	t.Helper()
	var selected []platform.VirtualSlave
	ceiling, rejected := platform.Time(0), false
	for _, cand := range stream {
		if len(selected) == n {
			return
		}
		trial := insertByProc(selected, cand)
		if !packFeasible(trial, deadline) {
			if !rejected || cand.Proc < ceiling {
				ceiling, rejected = cand.Proc, true
			}
			continue
		}
		if rejected && cand.Proc >= ceiling {
			t.Fatalf("%s: spec admits %v after rejecting Proc %d", label, cand, ceiling)
		}
		selected = trial
	}
}

// driveWalk replays the walk through one reused ceiling packer fed by
// the retiring merge, asserting after every probe that it admits the
// identical set with identical emission starts as the packFeasible spec
// greedy and the slice packer on the full stream of that deadline, that
// it made at most n + origins offers, and that the spec greedy itself
// obeys the ceiling lemma.
func driveWalk(t *testing.T, legs []probeLeg, walk []walkStep) {
	t.Helper()
	p, err := NewPacker(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for step, ws := range walk {
		if ws.deadline < 0 || ws.n < 0 {
			continue
		}
		var stream []platform.VirtualSlave
		for _, leg := range legs {
			stream = append(stream, leg[:legCount(leg, ws.deadline)]...)
		}
		slices.SortFunc(stream, platform.CompareVirtualSlaves)

		label := fmt.Sprintf("step %d (n=%d deadline=%d)", step, ws.n, ws.deadline)
		if err := p.Reset(ws.n, ws.deadline); err != nil {
			t.Fatal(err)
		}
		offers := offerRetiring(p, stream, len(legs))
		if offers > ws.n+len(legs) {
			t.Fatalf("%s: %d offers, want ≤ n + origins = %d", label, offers, ws.n+len(legs))
		}
		spec := packSpec(stream, ws.n, ws.deadline)
		slice, err := PackSorted(stream, ws.n, ws.deadline)
		if err != nil {
			t.Fatal(err)
		}
		allocsIdentical(t, label+": PackSorted vs spec", slice, spec)
		allocsIdentical(t, label+": ceiling packer vs spec", p.Allocation(), spec)
		specRespectsCeiling(t, label, stream, ws.n, ws.deadline)
	}
}

// maxWalkDeadline bounds the useful deadline range for a leg set.
func maxWalkDeadline(legs []probeLeg) platform.Time {
	var total platform.Time
	for _, leg := range legs {
		for _, v := range leg {
			if v.Comm+v.Proc > total {
				total = v.Comm + v.Proc
			}
		}
	}
	return total + 10
}

// totalCandidates counts every candidate of every leg.
func totalCandidates(legs []probeLeg) int {
	total := 0
	for _, leg := range legs {
		total += len(leg)
	}
	return total
}

// recordSearchWalk records the probe sequence of an actual deadline
// binary search (feasibility judged by the spec greedy).
func recordSearchWalk(legs []probeLeg, n int) []walkStep {
	var walk []walkStep
	lo, hi := platform.Time(0), maxWalkDeadline(legs)
	for lo < hi {
		mid := lo + (hi-lo)/2
		var stream []platform.VirtualSlave
		for _, leg := range legs {
			stream = append(stream, leg[:legCount(leg, mid)]...)
		}
		slices.SortFunc(stream, platform.CompareVirtualSlaves)
		walk = append(walk, walkStep{n: n, deadline: mid})
		if len(packSpec(stream, n, mid).Slaves) >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	walk = append(walk, walkStep{n: n, deadline: lo})
	return walk
}

// TestCeilingPackerRecordedSearches replays real binary searches: at
// every probe the ceiling packer must match the spec and slice packers.
func TestCeilingPackerRecordedSearches(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < trials; trial++ {
		legs := makeProbeLegs(r)
		n := r.Intn(totalCandidates(legs) + 2)
		driveWalk(t, legs, recordSearchWalk(legs, n))
	}
}

// TestCeilingPackerRandomWalks stresses arbitrary deadline movement —
// jumps up and down, exact repeats, zero deadlines — plus mid-walk
// budget changes, all on one reused packer.
func TestCeilingPackerRandomWalks(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < trials; trial++ {
		legs := makeProbeLegs(r)
		maxD := maxWalkDeadline(legs)
		total := totalCandidates(legs)
		n := r.Intn(total + 2)
		var walk []walkStep
		for step := 0; step < 12; step++ {
			d := platform.Time(r.Int63n(int64(maxD) + 1))
			switch r.Intn(6) {
			case 0: // exact repeat
				if len(walk) > 0 {
					d = walk[len(walk)-1].deadline
				}
			case 1: // budget change
				n = r.Intn(total + 2)
			}
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		driveWalk(t, legs, walk)
	}
}

// TestCeilingPackerBudgetResize: at a fixed deadline and unchanged
// stream, shrinking and regrowing the budget on a reused packer must
// land on the spec answer each time — Reset clears the ceiling along
// with the admitted set.
func TestCeilingPackerBudgetResize(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		legs := makeProbeLegs(r)
		d := maxWalkDeadline(legs)
		total := totalCandidates(legs)
		if total < 3 {
			continue
		}
		small := 1 + r.Intn(total)
		driveWalk(t, legs, []walkStep{{total, d}, {small, d}, {total, d}, {small, d / 2}, {total, d / 2}})
	}
}

// TestCeilingPackerMonotoneWalks covers the two regimes the seeded
// search produces: a galloping ascent, then a descending refinement.
func TestCeilingPackerMonotoneWalks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		legs := makeProbeLegs(r)
		maxD := maxWalkDeadline(legs)
		n := r.Intn(totalCandidates(legs) + 2)
		var walk []walkStep
		for d := platform.Time(1); d < maxD; d = d*2 + 1 {
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		for d := maxD; d >= 0; d -= max(1, maxD/7) {
			walk = append(walk, walkStep{n: n, deadline: d})
		}
		driveWalk(t, legs, walk)
	}
}

// TestCeilingRejectsWithoutDescent pins the packer-level contract: after
// a rejection the ceiling sits at the rejected Proc, and a later offer
// at or above it is refused even when the deadline alone would let it
// in.
func TestCeilingRejectsWithoutDescent(t *testing.T) {
	p, err := NewPacker(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Ceiling(); got != 1<<63-1 {
		t.Fatalf("fresh ceiling = %d", got)
	}
	if !p.Offer(platform.VirtualSlave{Comm: 2, Proc: 7, Leg: 0}) {
		t.Fatal("first candidate rejected")
	}
	// 2 + 2 + 7 = 11 > 10: displacing the admitted Proc 7 fails.
	if p.Offer(platform.VirtualSlave{Comm: 2, Proc: 8, Leg: 1}) {
		t.Fatal("infeasible candidate admitted")
	}
	if got := p.Ceiling(); got != 8 {
		t.Fatalf("ceiling after rejection = %d, want 8", got)
	}
	if p.Offer(platform.VirtualSlave{Comm: 3, Proc: 9, Leg: 2}) {
		t.Fatal("candidate above the ceiling admitted")
	}
	if !p.Offer(platform.VirtualSlave{Comm: 3, Proc: 1, Leg: 3}) {
		t.Fatal("feasible candidate below the ceiling rejected")
	}
	if err := p.Reset(3, 10); err != nil {
		t.Fatal(err)
	}
	if got := p.Ceiling(); got != 1<<63-1 {
		t.Fatalf("ceiling after Reset = %d", got)
	}
}
