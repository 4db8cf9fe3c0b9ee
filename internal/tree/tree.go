// Package tree extends the reproduction toward the paper's stated
// long-term objective (§8): scheduling on general trees of processors
// "by covering those graphs with simpler structures".
//
// The Tree platform type itself lives in internal/platform (aliased
// here), alongside chains, spiders and forks, so the wire envelope,
// the canonical fingerprint (platform.HashTree) and the uniform
// Kind/Hash/Throughput/LowerBound method set treat all four topologies
// alike. This package holds the scheduling machinery on top:
//
//   - SpiderCover: the covering heuristic the paper suggests — keep, for
//     each subtree hanging off the master, the downward path with the
//     best steady-state rate, then schedule the resulting spider
//     optimally with the §7 algorithm;
//   - Solver: a warmed solver caching the cover and the inner spider
//     solver, so repeated queries on one tree (the scheduling service's
//     traffic pattern) pay the cover extraction and the per-leg
//     backward constructions once. It is also the seam where a
//     tree-native scheduler (recursing the virtual-slave transformation
//     over subtrees) later swaps in without touching any caller;
//   - Brute: the exact exhaustive oracle for small trees, so the
//     covering heuristic's gap can be measured rather than guessed. It
//     enumerates destination sequences under opt.Forward, the ASAP/FIFO
//     model whose doc argues why that enumeration is exact on trees.
package tree

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/platform"
)

// Node is one processor of the tree (alias of platform.TreeNode).
type Node = platform.TreeNode

// Tree is a rooted tree of processors (alias of platform.Tree).
type Tree = platform.Tree

// Brute returns the exact optimal makespan of n tasks on the tree by
// exhaustive search over destination sequences under opt.Forward's
// ASAP/FIFO model. Exponential in n; for validation only.
func Brute(t Tree, n int) (platform.Time, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("tree: negative task count %d", n)
	}
	mk, _ := opt.NewForward(t).Brute(n)
	return mk, nil
}
