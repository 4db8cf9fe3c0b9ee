package service

import (
	"context"
	"testing"

	"repro/internal/platform"
	"repro/internal/tree"
)

// testTree is a branchy (non-spider) tree: two multi-child subtrees
// plus a lone remote machine, so the cover genuinely selects paths.
func testTree() platform.Tree {
	return platform.Tree{Roots: []platform.TreeNode{
		{Comm: 1, Work: 4, Children: []platform.TreeNode{
			{Comm: 1, Work: 2},
			{Comm: 2, Work: 3, Children: []platform.TreeNode{
				{Comm: 1, Work: 1},
			}},
		}},
		{Comm: 2, Work: 2, Children: []platform.TreeNode{
			{Comm: 3, Work: 1},
			{Comm: 1, Work: 5},
		}},
		{Comm: 3, Work: 2},
	}}
}

// permuteTree reverses sibling order at every level: an isomorphic tree
// that shares the canonical fingerprint but matches the original
// nowhere positionally.
func permuteTree(t platform.Tree) platform.Tree {
	var flip func(n platform.TreeNode) platform.TreeNode
	flip = func(n platform.TreeNode) platform.TreeNode {
		out := platform.TreeNode{Comm: n.Comm, Work: n.Work}
		for i := len(n.Children) - 1; i >= 0; i-- {
			out.Children = append(out.Children, flip(n.Children[i]))
		}
		return out
	}
	perm := platform.Tree{}
	for i := len(t.Roots) - 1; i >= 0; i-- {
		perm.Roots = append(perm.Roots, flip(t.Roots[i]))
	}
	return perm
}

func mustTreeRequest(t *testing.T, tr platform.Tree, op Op, n int, deadline platform.Time) *Request {
	t.Helper()
	req, err := NewRequest(tr, op, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestTreeWarmRepeatMatchesDirect is the tree half of the PR's
// acceptance criterion at the service layer: a served tree answers
// exactly like direct tree.Schedule (same makespan, same schedule on
// the covering spider), the warm repeat is an LRU hit, and an exact
// scalar repeat rides the per-entry memo — counter-asserted.
func TestTreeWarmRepeatMatchesDirect(t *testing.T) {
	tr := testTree()
	n := 21
	svc := New(Config{})

	req := mustTreeRequest(t, tr, OpMinMakespan, n, 0)
	req.IncludeSchedule = true
	cold, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" {
		t.Errorf("cold query cache = %q, want miss", cold.Meta.Cache)
	}
	warm, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Meta.Cache != "hit" {
		t.Errorf("warm query cache = %q, want hit", warm.Meta.Cache)
	}
	if warm.Meta.PlatformHash != platform.HashTree(tr).String() {
		t.Errorf("platform hash %q does not match HashTree", warm.Meta.PlatformHash)
	}

	wantMk, wantSched, _, err := tree.Schedule(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Makespan != wantMk {
		t.Errorf("warm makespan %d, want %d", warm.Makespan, wantMk)
	}
	dec, err := warm.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "spider" {
		t.Fatalf("tree schedules travel as cover-spider schedules, got kind %q", dec.Kind)
	}
	if !dec.Spider.Equal(wantSched) {
		t.Errorf("served schedule differs from direct tree.Schedule:\nserved: %v\ndirect: %v", dec.Spider, wantSched)
	}

	// Exact scalar repeats memo-hit without re-running the solver.
	scalar := mustTreeRequest(t, tr, OpMinMakespan, n, 0)
	if _, err := svc.Solve(context.Background(), scalar); err != nil {
		t.Fatal(err)
	}
	memoed, err := svc.Solve(context.Background(), scalar)
	if err != nil {
		t.Fatal(err)
	}
	if !memoed.Meta.Memo || memoed.Makespan != wantMk {
		t.Errorf("memo repeat: memo=%v makespan=%d, want memo hit with makespan %d", memoed.Meta.Memo, memoed.Makespan, wantMk)
	}

	st := svc.Stats()
	if st.Constructions != 1 || st.Hits != 3 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 construction, 3 hits, 1 memo hit", st)
	}
}

// TestIsomorphicTreesShareEntry: a sibling-permuted isomorphic tree
// must land on the same warmed solver (HashTree is order-normalised at
// every level) and still receive a feasible schedule of the same
// makespan, remapped onto its own cover.
func TestIsomorphicTreesShareEntry(t *testing.T) {
	tr := testTree()
	perm := permuteTree(tr)
	if platform.HashTree(tr) != platform.HashTree(perm) {
		t.Fatal("permuted tree does not share the fingerprint; the test premise is broken")
	}
	n := 17
	svc := New(Config{})

	if _, err := svc.Solve(context.Background(), mustTreeRequest(t, tr, OpMinMakespan, n, 0)); err != nil {
		t.Fatal(err)
	}

	preq := mustTreeRequest(t, perm, OpMinMakespan, n, 0)
	preq.IncludeSchedule = true
	resp, err := svc.Solve(context.Background(), preq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Meta.Cache != "hit" {
		t.Errorf("permuted query cache = %q, want hit (isomorphic trees share an entry)", resp.Meta.Cache)
	}
	wantMk, _, _, err := tree.Schedule(perm, n)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != wantMk {
		t.Errorf("permuted makespan %d, want %d", resp.Makespan, wantMk)
	}
	dec, err := resp.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	// The schedule must be expressed on the REQUESTER's cover: the
	// covering spider tree.SpiderCover extracts from the permuted tree,
	// leg for leg.
	cov, err := tree.SpiderCover(perm)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Spider.Spider.Legs) != len(cov.Spider.Legs) {
		t.Fatalf("schedule spider has %d legs, requester cover %d", len(dec.Spider.Spider.Legs), len(cov.Spider.Legs))
	}
	for b, leg := range dec.Spider.Spider.Legs {
		if !chainsEqual(leg, cov.Spider.Legs[b]) {
			t.Fatalf("schedule leg %d does not match the requester's own cover", b)
		}
	}
	if err := dec.Spider.Verify(); err != nil {
		t.Errorf("remapped schedule infeasible: %v", err)
	}
	if got := svc.Stats().Constructions; got != 1 {
		t.Errorf("constructions = %d, want 1 (shared entry via remapping)", got)
	}
}

// TestTreeCoalescesWithChainAndSpiderKinds: the registry keys solver
// kinds apart — a spider-shaped tree shares its FINGERPRINT with the
// spider it embeds (by design) but warms its own solver, because the
// engines differ.
func TestTreeSpiderShapedGetsOwnSolverKind(t *testing.T) {
	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	tr := platform.TreeFromSpider(sp)
	svc := New(Config{})
	n := 9

	if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 0)); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Solve(context.Background(), mustTreeRequest(t, tr, OpMinMakespan, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Meta.Cache != "miss" {
		t.Errorf("spider-shaped tree cache = %q, want miss (own solver kind)", resp.Meta.Cache)
	}
	st := svc.Stats()
	if st.Constructions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 constructions and 2 entries", st)
	}
	// Both must agree on the answer: the cover of a spider-shaped tree
	// is the spider itself, so the heuristic is exact here.
	spResp, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != spResp.Makespan {
		t.Errorf("spider-shaped tree makespan %d, spider %d", resp.Makespan, spResp.Makespan)
	}
}
