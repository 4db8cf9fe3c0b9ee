package tree

import (
	"math/big"

	"repro/internal/platform"
)

// Cover is a spider extracted from a tree: one downward path per root
// child. Paths index nodes by child positions from the root, so a
// schedule on the spider maps back onto tree nodes.
type Cover struct {
	Spider platform.Spider
	// Paths[b][d-1] is the child index taken at depth d-1 along leg b.
	Paths [][]int
}

// SpiderCover extracts the covering spider suggested by §8: for every
// subtree hanging off the master, keep the single downward path with
// the highest steady-state rate (ties: the longer, then the
// lexicographically smallest (c, w) sequence). Only covered nodes are
// used by the scheduling heuristic; the remaining nodes idle, which
// keeps every produced schedule feasible on the tree.
//
// The tie-breaks make the chosen chain a function of the subtree's set
// of downward paths, not of sibling order — so isomorphic trees
// (sibling-permuted, sharing a platform.HashTree fingerprint) yield
// covers with equal leg multisets. The scheduling service relies on
// this to remap one warmed tree solver's schedules onto any isomorphic
// requester.
func SpiderCover(t Tree) (*Cover, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cov := &Cover{}
	for _, root := range t.Roots {
		chain, path := bestPath(root)
		cov.Spider.Legs = append(cov.Spider.Legs, chain)
		cov.Paths = append(cov.Paths, path)
	}
	return cov, nil
}

// chainLess orders chains by length, then element-wise (Comm, Work):
// the canonical order bestPath breaks exact rate ties with.
func chainLess(a, b platform.Chain) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return len(a.Nodes) < len(b.Nodes)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Comm != b.Nodes[i].Comm {
			return a.Nodes[i].Comm < b.Nodes[i].Comm
		}
		if a.Nodes[i].Work != b.Nodes[i].Work {
			return a.Nodes[i].Work < b.Nodes[i].Work
		}
	}
	return false
}

// bestPath returns the downward path from root with the maximal chain
// steady-state rate. Ties prefer the longer path — extending a chain
// never lowers its rate, and the optimal spider scheduler can always
// ignore surplus tail processors, so extra coverage is free — then the
// lexicographically smallest node sequence, making the choice
// order-canonical (see SpiderCover).
func bestPath(root Node) (platform.Chain, []int) {
	var (
		bestChain platform.Chain
		bestPath  []int
		bestRate  *big.Rat
	)
	var walk func(n Node, nodes []platform.Node, path []int)
	walk = func(n Node, nodes []platform.Node, path []int) {
		nodes = append(nodes, platform.Node{Comm: n.Comm, Work: n.Work})
		candidate := platform.Chain{Nodes: nodes}
		rate, err := candidate.Throughput()
		if err == nil {
			better := bestRate == nil || rate.Cmp(bestRate) > 0
			if !better && rate.Cmp(bestRate) == 0 {
				better = len(nodes) > bestChain.Len() ||
					(len(nodes) == bestChain.Len() && chainLess(candidate, bestChain))
			}
			if better {
				bestChain = candidate.Clone()
				bestPath = append([]int(nil), path...)
				bestRate = rate
			}
		}
		for i, c := range n.Children {
			walk(c, nodes, append(path, i))
		}
	}
	walk(root, nil, nil)
	return bestChain, bestPath
}
