// Package fork implements the fork-graph (star) scheduling algorithm of
// Beaumont, Carter, Ferrante, Legrand and Robert recalled in §6 of the
// paper, which the spider algorithm of §7 builds on.
//
// The algorithm answers the dual question "how many tasks fit within a
// deadline Tlim?":
//
//  1. Every physical slave (c, w) is expanded into single-task virtual
//     slaves (c, w + k·max(c,w)) for k = 0, 1, … (Fig. 6): the task
//     executed k-from-last on the slave completes w + k·max(c,w) after
//     its communication ends, because consecutive tasks through one
//     slave are separated by at least max(c, w).
//  2. Any feasible single-task-slaves schedule can be reordered so the
//     master emits tasks by decreasing effective processing time,
//     back-to-back; a set S of virtual slaves is then feasible iff, in
//     that order, every prefix satisfies Σ_{j≤k} c_j + t_k ≤ Tlim.
//  3. Virtual slaves are admitted greedily in ascending communication
//     time (ties: ascending effective processing time), keeping a
//     candidate whenever the packing check still passes. [2] proves this
//     maximises the number of admitted tasks.
//
// Binary search over Tlim (the optimal makespan is an integer bounded by
// the master-only schedule) recovers the minimum makespan for n tasks.
//
// The greedy runs on Packer, a treap over the admitted set that tests
// and admits one candidate in O(log n). Packer also keeps a ceiling:
// once the greedy rejects a candidate, it rejects every later one whose
// processing time is at least as large (the ceiling lemma, proved at
// Packer.critical). Packer rejects those in O(1), and a caller merging
// per-slave runs — whose virtual slaves share c and grow in processing
// time — can stop reading a run at its first rejection, so one packing
// offers at most n + runs candidates.
//
// Production solves forks as spiders with one-node legs: the spider
// solver (package spider) feeds Packer the legs' candidate runs, which
// for a one-node leg are exactly the Fig. 6 expansion of its slave. The
// direct Fig. 6 path — expand every slave, sort, pack, revert FIFO —
// lives in this package's tests as the oracle ladder (oracle_test.go):
// packFeasible is the O(n²) spec, PackSorted the slice packer, PackTree
// the tree packer over a sorted stream, and MinMakespan/MaxTasks the
// fork answers the spider path must reproduce.
package fork

import "repro/internal/platform"

// Chosen is one admitted virtual slave together with its emission
// window on the master port: the send occupies [EmitStart, EmitStart+c).
type Chosen struct {
	platform.VirtualSlave
	EmitStart platform.Time
}

// Allocation is the result of packing virtual slaves against a deadline.
// Slaves appear in emission order (decreasing effective processing
// time), with back-to-back emission windows starting at time 0.
type Allocation struct {
	Deadline platform.Time
	Slaves   []Chosen
}
