package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/tree"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Name:  "tree-cover-heuristic",
		Paper: "§8 future work: trees covered by simpler structures",
		Run:   runTreeCover,
	})
}

// randomTree draws a small random tree: every node gets 0-2 children
// with decreasing probability by depth.
func randomTree(rng *rand.Rand, maxNodes int) tree.Tree {
	budget := maxNodes
	var grow func(depth int) tree.Node
	grow = func(depth int) tree.Node {
		budget--
		n := tree.Node{
			Comm: platform.Time(1 + rng.Intn(4)),
			Work: platform.Time(1 + rng.Intn(4)),
		}
		for c := 0; c < 2 && budget > 0; c++ {
			if rng.Intn(2+depth) == 0 {
				n.Children = append(n.Children, grow(depth+1))
			}
		}
		return n
	}
	t := tree.Tree{}
	roots := 1 + rng.Intn(2)
	for r := 0; r < roots && budget > 0; r++ {
		t.Roots = append(t.Roots, grow(0))
	}
	return t
}

// runTreeCover measures the spider-covering heuristic on random small
// trees against the exact tree oracle and the steady-state lower bound.
// Expected shape: exact on spider-shaped trees, a modest gap on branchy
// trees (the uncovered branches idle), never below the optimum or the
// bound.
func runTreeCover() (*Report, error) {
	rng := rand.New(rand.NewSource(2003))
	tbl := Table{
		Title:  "E11: spider-cover heuristic on random trees vs exact optimum",
		Note:   "ratio = heuristic makespan / exact optimum; LB = steady-state bound on the full tree.",
		Header: []string{"tree", "procs", "spider?", "n", "optimal", "heuristic", "ratio", "tree LB"},
	}
	var sumRatio float64
	var cases, exact int
	for t := 0; t < 12; t++ {
		tr := randomTree(rng, 5)
		if tr.Validate() != nil || tr.NumProcs() == 0 {
			continue
		}
		for _, n := range []int{2, 4} {
			optMk, err := tree.Brute(tr, n)
			if err != nil {
				return nil, err
			}
			heuMk, s, _, err := tree.Schedule(tr, n)
			if err != nil {
				return nil, err
			}
			if err := s.Verify(); err != nil {
				return nil, fmt.Errorf("tree heuristic schedule infeasible: %w", err)
			}
			lb, err := tr.LowerBound(n)
			if err != nil {
				return nil, err
			}
			ratio := float64(heuMk) / float64(optMk)
			sumRatio += ratio
			cases++
			if heuMk == optMk {
				exact++
			}
			tbl.AddRow(t, tr.NumProcs(), tr.IsSpider(), n, optMk, heuMk,
				fmt.Sprintf("%.3f", ratio), lb)
		}
	}
	summary := Table{
		Title:  "E11 summary",
		Header: []string{"quantity", "value"},
	}
	summary.AddRow("cases", cases)
	summary.AddRow("heuristic exact", fmt.Sprintf("%d/%d", exact, cases))
	summary.AddRow("mean ratio", fmt.Sprintf("%.4f", sumRatio/float64(cases)))
	return &Report{Tables: []Table{tbl, summary}}, nil
}
