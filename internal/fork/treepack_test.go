package fork

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/platform"
)

// packSpec is the O(n²) specification greedy: scan candidates in the
// given order, trial-insert each at its emission position and keep it
// iff packFeasible accepts the whole prefix sequence. Both incremental
// packers must reproduce its decisions exactly.
func packSpec(order []platform.VirtualSlave, n int, deadline platform.Time) *Allocation {
	var selected []platform.VirtualSlave
	for _, cand := range order {
		if len(selected) == n {
			break
		}
		if trial := insertByProc(selected, cand); packFeasible(trial, deadline) {
			selected = trial
		}
	}
	alloc := &Allocation{Deadline: deadline, Slaves: make([]Chosen, 0, len(selected))}
	var at platform.Time
	for _, v := range selected {
		alloc.Slaves = append(alloc.Slaves, Chosen{VirtualSlave: v, EmitStart: at})
		at += v.Comm
	}
	return alloc
}

// allocsIdentical requires the same admitted slaves in the same emission
// order with the same emission starts — full schedule identity, not just
// equal counts.
func allocsIdentical(t *testing.T, label string, got, want *Allocation) {
	t.Helper()
	if len(got.Slaves) != len(want.Slaves) {
		t.Fatalf("%s: admitted %d slaves, want %d", label, len(got.Slaves), len(want.Slaves))
	}
	for i := range want.Slaves {
		if got.Slaves[i] != want.Slaves[i] {
			t.Fatalf("%s: slave %d = %+v, want %+v", label, i, got.Slaves[i], want.Slaves[i])
		}
	}
}

// randomCandidates draws a sorted admission-order stream: a mix of
// structured per-origin runs (like spider legs produce: constant Comm,
// increasing Proc) and fully random singletons.
func randomCandidates(r *rand.Rand) []platform.VirtualSlave {
	var vs []platform.VirtualSlave
	legs := 1 + r.Intn(6)
	for leg := 0; leg < legs; leg++ {
		comm := platform.Time(1 + r.Intn(8))
		proc := platform.Time(1 + r.Intn(8))
		run := r.Intn(7)
		for k := 0; k < run; k++ {
			vs = append(vs, platform.VirtualSlave{Comm: comm, Proc: proc, Leg: leg, Rank: k})
			proc += platform.Time(1 + r.Intn(6))
		}
	}
	for k := 0; k < r.Intn(8); k++ {
		vs = append(vs, platform.VirtualSlave{
			Comm: platform.Time(1 + r.Intn(8)),
			Proc: platform.Time(1 + r.Intn(40)),
			Leg:  legs,
			Rank: k,
		})
	}
	slices.SortFunc(vs, platform.CompareVirtualSlaves)
	return vs
}

// TestTreePackerMatchesSliceAndSpec packs random candidate streams
// through the balanced-tree packer, the slice-based PackSorted and the
// packFeasible specification greedy, asserting all three admit the
// identical multiset in the identical emission order with identical
// emission starts.
func TestTreePackerMatchesSliceAndSpec(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 80
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		vs := randomCandidates(r)
		n := r.Intn(len(vs) + 2)
		deadline := platform.Time(r.Intn(90))

		spec := packSpec(vs, n, deadline)
		slice, err := PackSorted(vs, n, deadline)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := PackTree(vs, n, deadline)
		if err != nil {
			t.Fatal(err)
		}
		allocsIdentical(t, "PackSorted vs spec", slice, spec)
		allocsIdentical(t, "PackTree vs spec", tree, spec)

		// The streaming Offer API must agree with the batch entry and
		// report each admission decision consistently.
		p, err := NewPacker(n, deadline)
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for _, cand := range vs {
			if p.Offer(cand) {
				admitted++
			}
			if p.Len() != admitted {
				t.Fatalf("packer Len %d after %d admissions", p.Len(), admitted)
			}
		}
		allocsIdentical(t, "Packer.Offer vs spec", p.Allocation(), spec)
		if p.Full() != (p.Len() == n) {
			t.Fatalf("Full() = %v with %d/%d admitted", p.Full(), p.Len(), n)
		}
	}
}

// TestTreePackerEqualProcTies pins the tie layout: among equal
// processing times the earlier-admitted slave keeps the earlier emission
// slot, in both packers.
func TestTreePackerEqualProcTies(t *testing.T) {
	vs := []platform.VirtualSlave{
		{Comm: 1, Proc: 5, Leg: 0, Rank: 0},
		{Comm: 1, Proc: 5, Leg: 1, Rank: 0},
		{Comm: 2, Proc: 5, Leg: 2, Rank: 0},
		{Comm: 2, Proc: 5, Leg: 3, Rank: 0},
	}
	slice, err := PackSorted(vs, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := PackTree(vs, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	allocsIdentical(t, "equal-proc ties", tree, slice)
	for i, c := range tree.Slaves {
		if c.Leg != i {
			t.Fatalf("emission slot %d holds leg %d, want admission order preserved", i, c.Leg)
		}
	}
}

// TestTreePackerEdges covers the degenerate inputs.
func TestTreePackerEdges(t *testing.T) {
	if _, err := NewPacker(3, -1); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := NewPacker(-1, 3); err == nil {
		t.Error("negative task budget accepted")
	}
	p, err := NewPacker(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Full() {
		t.Error("zero-budget packer not Full")
	}
	if p.Offer(platform.VirtualSlave{Comm: 1, Proc: 1}) {
		t.Error("zero-budget packer admitted a candidate")
	}
	if got := p.Allocation(); len(got.Slaves) != 0 || got.Deadline != 10 {
		t.Errorf("empty allocation = %+v", got)
	}
	// A candidate that exactly meets the deadline is admitted; one unit
	// over is not.
	p, err = NewPacker(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Offer(platform.VirtualSlave{Comm: 4, Proc: 6}) {
		t.Error("exact-fit candidate rejected")
	}
	if p.Offer(platform.VirtualSlave{Comm: 5, Proc: 6}) {
		t.Error("over-deadline candidate admitted")
	}
	if p.Deadline() != 10 {
		t.Errorf("Deadline() = %d, want 10", p.Deadline())
	}
}

// TestTreePackerLargeStream stresses the tree on a long structured
// stream (many legs, many ranks) against the slice packer — the regime
// the spider solver's wide-platform probes produce.
func TestTreePackerLargeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large-stream equivalence skipped in -short mode")
	}
	g := platform.MustGenerator(41, 1, 9, platform.Bimodal)
	f := g.Fork(64)
	vs := expandFork(f, 128)
	slices.SortFunc(vs, platform.CompareVirtualSlaves)
	for _, deadline := range []platform.Time{0, 17, 133, 900, 4000} {
		slice, err := PackSorted(vs, 128, deadline)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := PackTree(vs, 128, deadline)
		if err != nil {
			t.Fatal(err)
		}
		allocsIdentical(t, "large stream", tree, slice)
	}
}
