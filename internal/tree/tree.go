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
//   - an exact exhaustive oracle for small trees (brute.go), so the
//     covering heuristic's gap can be measured rather than guessed.
package tree

import "repro/internal/platform"

// Node is one processor of the tree (alias of platform.TreeNode).
type Node = platform.TreeNode

// Tree is a rooted tree of processors (alias of platform.Tree).
type Tree = platform.Tree
