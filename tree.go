package repro

import (
	"math/big"

	"repro/internal/platform"
	"repro/internal/tree"
)

// Tree is a general rooted tree of processors — the paper's §8 future
// work, supported here through the spider-covering heuristic.
type Tree = tree.Tree

// TreeNode is one processor of a Tree.
type TreeNode = tree.Node

// TreeCover is the spider extracted from a tree by the covering
// heuristic, with the paths mapping spider legs back to tree nodes.
type TreeCover = tree.Cover

// TreeFromSpider embeds a spider as a tree.
func TreeFromSpider(sp Spider) Tree { return platform.TreeFromSpider(sp) }

// ScheduleTree schedules n tasks on a general tree with the §8 covering
// heuristic: the best-rate downward path of every subtree forms a
// spider, scheduled optimally by the §7 algorithm. The returned
// schedule is expressed on the covering spider; uncovered processors
// idle, so it is feasible on the tree as-is. Exact whenever the tree is
// already a spider.
func ScheduleTree(t Tree, n int) (Time, *SpiderSchedule, *TreeCover, error) {
	mk, s, cov, err := tree.Schedule(t, n)
	return mk, s, cov, wrapKindErr("tree", err)
}

// TreeThroughput returns the exact steady-state task rate of the tree
// (recursive one-port bandwidth-centric allocation).
func TreeThroughput(t Tree) (*big.Rat, error) {
	r, err := t.Throughput()
	return r, wrapKindErr("tree", err)
}

// TreeLowerBound returns a proven lower bound on the optimal makespan
// of n tasks on the tree.
func TreeLowerBound(t Tree, n int) (Time, error) {
	lb, err := t.LowerBound(n)
	return lb, wrapKindErr("tree", err)
}
