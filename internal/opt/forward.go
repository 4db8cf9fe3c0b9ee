package opt

import (
	"repro/internal/platform"
	"repro/internal/sched"
)

// Forward is the ASAP/FIFO forward model of a tree of processors, the
// one model behind every oracle and forward heuristic: a chain runs as
// a one-leg spider and a spider as its tree (platform.TreeFromSpider).
//
// Nodes are numbered 0..Len()-1 depth-first, so on a spider's tree the
// order is (leg, depth) order. Every node owns one send port
// and the master owns port 0; sending into node u occupies its parent's
// port for comm(u). On a spider the master's port covers every leg's
// first link and an inner node's port is its only outgoing link, so the
// ports are exactly the paper's one-port master and links.
//
// # Why destination-sequence enumeration is exact
//
// Without loss of generality tasks leave the master in index order (the
// paper's convention after Definition 1). Tasks are identical, so any
// feasible schedule can be rewritten, by exchanging task identities
// downstream, so that every port forwards tasks in arrival order and
// every processor runs its tasks in arrival order (FIFO). Arrivals at a
// node are strictly ordered, because its single incoming link
// serialises them. If a later arrival took an earlier port slot, the
// earlier task was already there, so swapping the two continuations
// gives a feasible schedule using the same resources. With FIFO fixed,
// moving every communication and execution to its earliest feasible
// time (ASAP) breaks no constraint and delays nothing. Hence the
// minimum over all schedules is the minimum over destination sequences
// of this model, and Brute's enumeration of the Len()^n sequences is
// exact.
type Forward struct {
	nodes []fwdNode
	// free holds the state: port[k] is when port k can next send (0 the
	// master, u+1 node u) and proc[u] when node u's processor is idle.
	free, port, proc []platform.Time
}

type fwdNode struct {
	comm, work platform.Time
	from       int   // the port that sends into the node
	leg        int   // the master's child whose subtree holds the node
	path       []int // node ids from the master's child down to the node
}

// NewForward builds the idle model of a valid tree.
func NewForward(t platform.Tree) *Forward {
	f := &Forward{}
	var walk func(n platform.TreeNode, from, leg int, above []int)
	walk = func(n platform.TreeNode, from, leg int, above []int) {
		u := len(f.nodes)
		path := append(above[:len(above):len(above)], u)
		f.nodes = append(f.nodes, fwdNode{comm: n.Comm, work: n.Work, from: from, leg: leg, path: path})
		for _, c := range n.Children {
			walk(c, u+1, leg, path)
		}
	}
	for b, r := range t.Roots {
		walk(r, 0, b, nil)
	}
	p := len(f.nodes)
	f.free = make([]platform.Time, 2*p+1)
	f.port, f.proc = f.free[:p+1], f.free[p+1:]
	return f
}

// Len returns the number of processors.
func (f *Forward) Len() int { return len(f.nodes) }

// Completion returns when the next task would finish on node u, without
// committing it.
func (f *Forward) Completion(u int) platform.Time {
	var at platform.Time
	for _, v := range f.nodes[u].path {
		at = max(at, f.port[f.nodes[v].from]) + f.nodes[v].comm
	}
	return max(at, f.proc[u]) + f.nodes[u].work
}

// Commit sends the next task to node u as soon as every port on its
// path is free and returns its execution start. When comms is non-nil,
// comms[k] receives the start of the task's k-th hop; it needs one
// entry per node on u's path.
func (f *Forward) Commit(u int, comms []platform.Time) platform.Time {
	var at platform.Time
	for k, v := range f.nodes[u].path {
		start := max(at, f.port[f.nodes[v].from])
		if comms != nil {
			comms[k] = start
		}
		at = start + f.nodes[v].comm
		f.port[f.nodes[v].from] = at
	}
	start := max(at, f.proc[u])
	f.proc[u] = start + f.nodes[u].work
	return start
}

// Task commits the next task to node u and returns it as a spider task:
// Leg is u's subtree under the master and Proc its depth.
func (f *Forward) Task(u int) sched.SpiderTask {
	comms := make([]platform.Time, len(f.nodes[u].path))
	start := f.Commit(u, comms)
	return sched.SpiderTask{Leg: f.nodes[u].leg, ChainTask: sched.ChainTask{Proc: len(comms), Start: start, Comms: comms}}
}

// Brute returns the least makespan of n tasks from an idle start over
// every destination sequence, and the first sequence in enumeration
// order (lexicographic in node ids) that attains it. A prefix whose
// makespan already reaches the best found is cut: adding tasks never
// lowers a makespan, so the cut changes neither answer. The model is
// left idle.
func (f *Forward) Brute(n int) (platform.Time, []int) {
	clear(f.free)
	w := len(f.free)
	snap := make([]platform.Time, n*w)
	best, bestDests := platform.MaxTime, make([]int, n)
	dests := make([]int, n)
	var rec func(i int, mk platform.Time)
	rec = func(i int, mk platform.Time) {
		if i == n {
			best = mk
			copy(bestDests, dests)
			return
		}
		saved := snap[i*w : (i+1)*w]
		copy(saved, f.free)
		for u := range f.nodes {
			if end := f.Commit(u, nil) + f.nodes[u].work; max(mk, end) < best {
				dests[i] = u
				rec(i+1, max(mk, end))
			}
			copy(f.free, saved)
		}
	}
	rec(0, 0)
	return best, bestDests
}

// maxTasks returns the largest m ≤ limit whose optimal makespan fits
// within the deadline. The optimum is non-decreasing in the task count
// (a schedule of m tasks contains one of m−1), so the first miss ends
// the search.
func (f *Forward) maxTasks(limit int, deadline platform.Time) int {
	for m := 1; m <= limit; m++ {
		if mk, _ := f.Brute(m); mk > deadline {
			return m - 1
		}
	}
	return limit
}
