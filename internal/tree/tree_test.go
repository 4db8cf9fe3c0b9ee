package tree

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/spider"
)

// branchy is a tree with a genuine branching node:
//
//	master ── (1,4) ─┬─ (1,2)
//	                 └─ (2,3)
//	master ── (3,1)
func branchy() Tree {
	return Tree{Roots: []Node{
		{Comm: 1, Work: 4, Children: []Node{
			{Comm: 1, Work: 2},
			{Comm: 2, Work: 3},
		}},
		{Comm: 3, Work: 1},
	}}
}

func TestValidateAndShape(t *testing.T) {
	tr := branchy()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if tr.NumProcs() != 4 {
		t.Errorf("NumProcs = %d, want 4", tr.NumProcs())
	}
	if tr.IsSpider() {
		t.Error("branchy tree classified as spider")
	}
	if err := (Tree{}).Validate(); err == nil {
		t.Error("empty tree validated")
	}
	bad := Tree{Roots: []Node{{Comm: 1, Work: 1, Children: []Node{{Comm: 0, Work: 2}}}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-latency child validated")
	}
	if !strings.Contains(tr.String(), "--1--> [4]") {
		t.Errorf("String = %q", tr.String())
	}
}

func TestFromSpiderIsSpider(t *testing.T) {
	sp := platform.NewSpider(platform.NewChain(2, 3, 3, 5), platform.NewChain(1, 4))
	tr := platform.TreeFromSpider(sp)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.IsSpider() {
		t.Error("embedded spider not recognised")
	}
	if tr.NumProcs() != sp.NumProcs() {
		t.Errorf("NumProcs = %d, want %d", tr.NumProcs(), sp.NumProcs())
	}
}

func TestRateMatchesChainAndSpiderRates(t *testing.T) {
	// Unary trees and depth-1 trees must reproduce the chain/spider
	// steady-state rates exactly: the tree's node recursion against the
	// chain recursion, and against the spider's leg rates fed to the
	// same one-port knapsack.
	g := platform.MustGenerator(55, 1, 9, platform.Uniform)
	tg := platform.MustGenerator(56, 1, 9, platform.Uniform)
	for trial := 0; trial < 8; trial++ {
		ch := g.Chain(1 + trial%4)
		want, err := ch.Throughput()
		if err != nil {
			t.Fatal(err)
		}
		got, err := platform.TreeFromSpider(platform.NewSpider(ch)).Throughput()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("chain %v: tree rate %s, chain rate %s", ch, got.RatString(), want.RatString())
		}

		// tied gives its legs two first-link costs, so the one-port
		// knapsack sorts items of equal cost.
		sp := g.Spider(2+trial%3, 3)
		tied := tg.Spider(3+trial%4, 2)
		for b := range tied.Legs {
			tied.Legs[b].Nodes[0].Comm = platform.Time(1 + b%2)
		}
		for _, sp := range []platform.Spider{sp, tied} {
			wantSp, err := sp.Throughput()
			if err != nil {
				t.Fatal(err)
			}
			gotSp, err := platform.TreeFromSpider(sp).Throughput()
			if err != nil {
				t.Fatal(err)
			}
			if gotSp.Cmp(wantSp) != 0 {
				t.Errorf("spider %v: tree rate %s, spider rate %s", sp, gotSp.RatString(), wantSp.RatString())
			}
		}
	}
}

func TestRateBranchyHandChecked(t *testing.T) {
	// branchy(): inner node (1,4) with children (1,2) and (2,3).
	//   X(1,2) = min(1, 1/2) = 1/2; X(2,3) = min(1/2, 1/3) = 1/3.
	//   Y(children) = knapsack: (1,2) first: r=1/2 costs 1/2; budget 1/2
	//   left; (2,3): r = min(1/3, (1/2)/2=1/4) = 1/4. Y = 3/4.
	//   X(root0) = min(1/1, 1/4 + 3/4) = 1.
	//   X(root1) = min(1/3, 1/1) = 1/3.
	//   master: (1,...) first: r=1 costs 1, budget 0; root1 gets 0.
	//   total = 1.
	rate, err := branchy().Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if rate.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("rate = %s, want 1", rate.RatString())
	}
}

func TestBruteMatchesSpiderOracleOnSpiderTrees(t *testing.T) {
	// For spider-shaped trees the exhaustive tree oracle must agree with
	// the §7 spider algorithm (Theorem 3), which shares no code with it.
	g := platform.MustGenerator(77, 1, 4, platform.Uniform)
	for trial := 0; trial < 6; trial++ {
		sp := g.Spider(2, 2)
		tr := platform.TreeFromSpider(sp)
		solver, err := spider.NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 3; n++ {
			wantMk, _, err := solver.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Brute(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantMk {
				t.Fatalf("%v n=%d: tree oracle %d, spider solver %d", sp, n, got, wantMk)
			}
		}
	}
}

func TestBruteBranchingTreePinned(t *testing.T) {
	// master ──1── A (w=100) ─┬─c── leaf (w)
	//                         └─c── leaf (w)
	// Checked by hand. With c=1, w=3 the master's port is the
	// bottleneck and A's port keeps both leaves busy: the first task
	// finishes at 1+1+3 = 5 and the leaves alternate behind it. With
	// c=3, w=1 A's one port is the bottleneck: it sends every 3 units
	// from time 1, so task n finishes at 2+3n even though the two leaf
	// links are distinct.
	for _, tc := range []struct {
		c, w platform.Time
		want []platform.Time
	}{
		{1, 3, []platform.Time{5, 6, 8, 9, 11, 12}},
		{3, 1, []platform.Time{5, 8, 11, 14}},
	} {
		tr := Tree{Roots: []Node{{Comm: 1, Work: 100, Children: []Node{
			{Comm: tc.c, Work: tc.w},
			{Comm: tc.c, Work: tc.w},
		}}}}
		for n := 1; n <= len(tc.want); n++ {
			got, err := Brute(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want[n-1] {
				t.Errorf("leaves c=%d w=%d, n=%d: Brute = %d, want %d", tc.c, tc.w, n, got, tc.want[n-1])
			}
		}
	}
}

func TestLowerBoundNeverExceedsOptimum(t *testing.T) {
	trees := []Tree{
		branchy(),
		platform.TreeFromSpider(platform.NewSpider(platform.NewChain(2, 3, 3, 5), platform.NewChain(1, 4))),
		{Roots: []Node{{Comm: 1, Work: 2, Children: []Node{
			{Comm: 1, Work: 1}, {Comm: 1, Work: 1}, {Comm: 2, Work: 2},
		}}}},
	}
	for ti, tr := range trees {
		for n := 1; n <= 3; n++ {
			lb, err := tr.LowerBound(n)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := Brute(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			if lb > mk {
				t.Errorf("tree %d n=%d: lower bound %d exceeds optimum %d", ti, n, lb, mk)
			}
		}
	}
}

func TestCoverIsExactOnSpiders(t *testing.T) {
	// When the tree is already a spider the cover is the whole tree and
	// the heuristic is optimal (Theorem 3).
	g := platform.MustGenerator(88, 1, 4, platform.Uniform)
	for trial := 0; trial < 5; trial++ {
		sp := g.Spider(2, 2)
		tr := platform.TreeFromSpider(sp)
		for n := 1; n <= 3; n++ {
			mk, s, cov, err := Schedule(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("infeasible: %v", err)
			}
			if cov.Spider.NumProcs() != tr.NumProcs() {
				t.Errorf("cover dropped nodes of a spider tree")
			}
			want, err := Brute(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			if mk != want {
				t.Fatalf("%v n=%d: heuristic %d, optimum %d", sp, n, mk, want)
			}
		}
	}
}

func TestCoverHeuristicBoundsOnBranchyTrees(t *testing.T) {
	// On general trees the heuristic is feasible and sits between the
	// exact optimum and (trivially) infinity; it can be strictly
	// suboptimal because it idles the uncovered branch.
	tr := branchy()
	sawGap := false
	for n := 1; n <= 4; n++ {
		mk, s, cov, err := Schedule(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("n=%d: infeasible: %v", n, err)
		}
		opt, err := Brute(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		if mk < opt {
			t.Fatalf("n=%d: heuristic %d beats the exact optimum %d", n, mk, opt)
		}
		if mk > opt {
			sawGap = true
		}
		// The cover keeps exactly one path per root child.
		if len(cov.Paths) != len(tr.Roots) {
			t.Errorf("cover has %d paths, want %d", len(cov.Paths), len(tr.Roots))
		}
	}
	if !sawGap {
		t.Log("note: covering heuristic happened to be optimal on branchy() for all tested n")
	}
}

func TestCoverPicksBestRatePath(t *testing.T) {
	// Root subtree: (1,9) -> {(1,1), (5,1)}: the (1,1) extension has
	// chain rate min(1, 1/9 + min(1,1)) = ... both extensions beat the
	// bare root; the (1,1) child gives rate min(1, 1/9+1) = 1 vs the
	// (5,1) child min(1, 1/9 + 1/5). The cover must take child 0.
	tr := Tree{Roots: []Node{{Comm: 1, Work: 9, Children: []Node{
		{Comm: 1, Work: 1},
		{Comm: 5, Work: 1},
	}}}}
	cov, err := SpiderCover(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Paths) != 1 || len(cov.Paths[0]) != 1 || cov.Paths[0][0] != 0 {
		t.Errorf("cover paths = %v, want [[0]]", cov.Paths)
	}
	leg := cov.Spider.Legs[0]
	if leg.Len() != 2 || leg.Comm(2) != 1 || leg.Work(2) != 1 {
		t.Errorf("cover leg = %v", leg)
	}
}

func TestBruteDegenerate(t *testing.T) {
	if _, err := Brute(Tree{}, 2); err == nil {
		t.Error("empty tree accepted")
	}
	if _, err := Brute(branchy(), -1); err == nil {
		t.Error("negative n accepted")
	}
	mk, err := Brute(branchy(), 0)
	if err != nil || mk != 0 {
		t.Errorf("n=0: %v %d", err, mk)
	}
}
