package tree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/spider"
)

// shuffleTree returns an isomorphic copy with siblings randomly
// permuted at every level.
func shuffleTree(rng *rand.Rand, t Tree) Tree {
	var shuffle func(n Node) Node
	shuffle = func(n Node) Node {
		out := Node{Comm: n.Comm, Work: n.Work}
		for _, i := range rng.Perm(len(n.Children)) {
			out.Children = append(out.Children, shuffle(n.Children[i]))
		}
		return out
	}
	res := Tree{}
	for _, i := range rng.Perm(len(t.Roots)) {
		res.Roots = append(res.Roots, shuffle(t.Roots[i]))
	}
	return res
}

// legKey flattens a chain for multiset comparison.
func legKey(ch platform.Chain) string {
	var b strings.Builder
	for _, n := range ch.Nodes {
		fmt.Fprintf(&b, "%d:%d|", n.Comm, n.Work)
	}
	return b.String()
}

// TestCoverCanonicalUnderIsomorphism: sibling-permuted isomorphic trees
// must produce covers with equal leg MULTISETS — the property the
// scheduling service's schedule remapping stands on (isomorphic trees
// share a cache entry; the cached cover's schedule is rewritten onto
// the requester's cover leg for leg).
func TestCoverCanonicalUnderIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := platform.MustGenerator(13, 1, 6, platform.Uniform)
	for trial := 0; trial < 60; trial++ {
		tr := g.Tree(3, 3)
		cov, err := SpiderCover(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, 0, len(cov.Spider.Legs))
		for _, leg := range cov.Spider.Legs {
			want = append(want, legKey(leg))
		}
		sort.Strings(want)
		for p := 0; p < 3; p++ {
			perm := shuffleTree(rng, tr)
			pcov, err := SpiderCover(perm)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(pcov.Spider.Legs))
			for _, leg := range pcov.Spider.Legs {
				got = append(got, legKey(leg))
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d: cover leg count changed under isomorphism", trial)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: cover leg multiset changed under isomorphism:\n%v\nvs\n%v", trial, want, got)
				}
			}
		}
	}
}

// TestSolverMatchesOneShotSchedule: the warmed Solver and the one-shot
// Schedule answer identically, across task counts on one Solver.
func TestSolverMatchesOneShotSchedule(t *testing.T) {
	g := platform.MustGenerator(29, 1, 9, platform.Bimodal)
	for trial := 0; trial < 10; trial++ {
		tr := g.Tree(3, 3)
		s, err := NewSolver(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 5, 17} {
			wantMk, wantSch, _, err := Schedule(tr, n)
			if err != nil {
				t.Fatal(err)
			}
			mk, sch, err := s.MinMakespan(n)
			if err != nil {
				t.Fatal(err)
			}
			if mk != wantMk || !sch.Equal(wantSch) {
				t.Fatalf("trial %d n=%d: warmed solver diverges from one-shot Schedule", trial, n)
			}
			// The deadline surface agrees with the inner spider solver
			// on the same cover.
			k, err := s.MaxTasks(n, mk)
			if err != nil {
				t.Fatal(err)
			}
			if k != n {
				t.Fatalf("trial %d n=%d: %d tasks fit at the optimum deadline", trial, n, k)
			}
			if mk > 1 {
				k, err = s.MaxTasks(n, mk-1)
				if err != nil {
					t.Fatal(err)
				}
				if k >= n {
					t.Fatalf("trial %d n=%d: optimum not tight (%d fit at mk-1)", trial, n, k)
				}
			}
		}
		// The solver is exact on spider-shaped trees: cross-check one.
		sp := g.Spider(3, 2)
		ts, err := NewSolver(platform.TreeFromSpider(sp))
		if err != nil {
			t.Fatal(err)
		}
		wantMk, _, err := spider.MinMakespan(sp, 12)
		if err != nil {
			t.Fatal(err)
		}
		mk, _, err := ts.MinMakespan(12)
		if err != nil {
			t.Fatal(err)
		}
		if mk != wantMk {
			t.Fatalf("spider-shaped tree optimum %d, spider %d", mk, wantMk)
		}
	}
}
