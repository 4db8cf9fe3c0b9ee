package platform

import (
	"cmp"
	"fmt"
)

// VirtualSlave is a single-task slave produced by the transformations of
// §6 (Fig. 6) and §7 (Fig. 7): a processor that executes exactly one task
// received through a link of latency Comm and completes it Proc time
// units after the communication ends.
//
// Origin describes which physical resource the virtual slave stands for,
// so a fork-graph allocation can be reverted to a schedule on the
// original platform (Lemma 3).
type VirtualSlave struct {
	Comm Time // latency of the link from the master
	Proc Time // effective processing time of the unique task

	// Origin.
	Leg  int // index of the originating leg (0 for forks)
	Rank int // rank of the virtual slave within its origin (see below)
}

// ExpandNode performs the Fig. 6 transformation of a single fork slave
// (c, w) into n single-task virtual slaves with identical link latency c
// and processing times w, w+m, w+2m, …, w+(n−1)m where m = max(c, w).
//
// The k-th virtual slave (Rank k, 0-based) models "the task executed
// k-from-last on this slave": consecutive tasks pipelined through one
// slave are separated by at least m, because the link is busy c per task
// and the processor w per task, so a task followed by k others needs
// w + k·m time after its communication completes.
func ExpandNode(n Node, count int, leg int) []VirtualSlave {
	m := max(n.Comm, n.Work)
	out := make([]VirtualSlave, 0, count)
	for k := 0; k < count; k++ {
		out = append(out, VirtualSlave{
			Comm: n.Comm,
			Proc: n.Work + Time(k)*m,
			Leg:  leg,
			Rank: k,
		})
	}
	return out
}

// CompareVirtualSlaves is the admission order of the fork-graph
// algorithm of [2] recalled in §6: ascending link latency, breaking
// ties by ascending processing time, then by origin. No two distinct
// virtual slaves compare equal — (Leg, Rank) is unique per origin — so
// the order is total and stability is irrelevant.
func CompareVirtualSlaves(a, b VirtualSlave) int {
	if c := cmp.Compare(a.Comm, b.Comm); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Leg, b.Leg); c != 0 {
		return c
	}
	return cmp.Compare(a.Rank, b.Rank)
}

// String renders the virtual slave.
func (v VirtualSlave) String() string {
	return fmt.Sprintf("virt{c=%d,t=%d,leg=%d,rank=%d}", v.Comm, v.Proc, v.Leg, v.Rank)
}
