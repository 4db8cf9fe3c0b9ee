package fork

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// Packer is the balanced-tree incremental packer: a treap whose in-order
// traversal is the emission order (decreasing effective processing time,
// admission-stable among equals) carrying per-subtree aggregates, so one
// candidate costs O(log n) to test and admit instead of the O(n)
// elapsed/minSlack rebuild of the slice-based packer (PackSorted, the
// test-only oracle in oracle_test.go).
//
// Per node the tree maintains, over its subtree,
//
//   - commSum: the total communication time, and
//   - minRel:  min over subtree members j of −(localElapsed(j) + Proc(j)),
//     where localElapsed(j) is the cumulative communication from
//     the subtree's first emission through j's own send.
//
// Every quantity is relative to the subtree's start, which is what makes
// insertions cheap: admitting a candidate delays every later send by
// exactly the candidate's communication time, and in this representation
// that delay is absorbed lazily — nothing below the insertion path is
// touched, because a subtree's aggregates never mention absolute time.
// The absolute slack of a suffix is recovered during descent as
// (deadline − elapsedBefore) + minRel.
//
// Candidates must be offered in the admission order of [2] (ascending
// CompareVirtualSlaves); the greedy decisions, the admitted multiset and
// the emission starts are then identical to PackSorted's, which the
// equivalence tests assert. The packer also keeps a ceiling, the lowest
// Proc it has rejected: by the ceiling lemma (see critical) no later
// candidate at or above it can be admitted, so such offers are rejected
// in O(1) and a merge feeding the packer can stop reading any origin
// whose next Proc reaches the ceiling. A Packer is not safe for
// concurrent use.
type Packer struct {
	deadline platform.Time
	n        int
	ceiling  platform.Time // lowest rejected Proc; math.MaxInt64 before any rejection
	nodes    []treeNode
	root     int32
	rng      uint64
}

// prioGamma is the splitmix64 increment seeding the treap priorities.
// The priority of the i-th admitted node is a pure function of i, so the
// same admission sequence always builds the identical treap.
const prioGamma = 0x9e3779b97f4a7c15

// treeNode is one admitted virtual slave in the treap. Children are
// indices into Packer.nodes (−1 for none): index-based storage keeps the
// tree in one allocation-amortised slice and survives reallocation,
// which pointer-based nodes would not.
type treeNode struct {
	v           platform.VirtualSlave
	prio        uint64
	left, right int32
	commSum     platform.Time // Σ Comm over the subtree
	minRel      platform.Time // min −(localElapsed+Proc) over the subtree
}

// Reset empties the packer for a new deadline and task budget and clears
// its ceiling, keeping the node storage so a solver probing many
// deadlines allocates once.
func (p *Packer) Reset(n int, deadline platform.Time) error {
	if deadline < 0 {
		return fmt.Errorf("fork: negative deadline %d", deadline)
	}
	if n < 0 {
		return fmt.Errorf("fork: negative task count %d", n)
	}
	p.deadline, p.n, p.ceiling = deadline, n, math.MaxInt64
	p.nodes, p.root, p.rng = p.nodes[:0], -1, prioGamma
	return nil
}

// Len returns the number of admitted virtual slaves.
func (p *Packer) Len() int { return len(p.nodes) }

// Full reports whether the packer has admitted its task budget; further
// offers are rejected without inspection.
func (p *Packer) Full() bool { return len(p.nodes) == p.n }

// Deadline returns the deadline the packer admits against.
func (p *Packer) Deadline() platform.Time { return p.deadline }

// Ceiling returns the lowest Proc rejected since the last Reset
// (math.MaxInt64 before the first rejection). Every later candidate of
// the admission order with Proc ≥ Ceiling is rejected.
func (p *Packer) Ceiling() platform.Time { return p.ceiling }

// Offer runs the greedy admission check of [2] on one candidate and
// admits it when the decreasing-processing-time packing stays feasible,
// reporting whether it was admitted. A candidate at or above the
// ceiling is rejected without a descent; any other rejection lowers the
// ceiling to the candidate's Proc. Candidates must arrive in ascending
// CompareVirtualSlaves order: the greedy is optimal only in that order,
// and the ceiling is sound only in it.
func (p *Packer) Offer(cand platform.VirtualSlave) bool {
	if p.Full() || cand.Proc >= p.ceiling {
		return false
	}
	if p.deadline < p.critical(cand) {
		p.ceiling = cand.Proc
		return false
	}
	p.insertCand(cand)
	return true
}

// critical returns the smallest deadline that would admit cand against
// the current admitted set: the maximum of the candidate's own prefix
// constraint (elapsed communication before it plus its own
// communication and processing) and the displaced suffix's tightest
// completion shifted by the candidate's communication time.
//
// Ceiling lemma. Let D be the deadline, S the admitted set, and
// before_S(p) = Σ Comm over S with Proc ≥ p. If the greedy rejects
// v = (c, p) given S, it rejects every later candidate v' = (c', p')
// with p' ≥ p given any admitted set S' ⊇ S. Scan order gives c' ≥ c.
// Rejection means one of two things:
//
//	(a) before_S(p) + c + p > D, or
//	(b) some j ∈ S with Proc_j < p finishes late once displaced:
//	    elapsed_j + c + Proc_j > D.
//
// In case (b), j is displaced by v' too (Proc_j < p ≤ p'), and its
// elapsed time only grows from S to S', so it finishes after
// elapsed_j + c' + Proc_j > D. In case (a), suppose some j ∈ S has
// Proc_j ∈ [p, p'). Take the last such j in emission order: every
// member of S with Proc ≥ p is emitted no later than j, so
// elapsed_j ≥ before_S(p) in S', j is displaced by v', and it finishes
// at or after before_S(p) + c' + Proc_j ≥ before_S(p) + c + p > D. If
// there is no such j, every member of S with Proc ≥ p has Proc ≥ p', so
// before_{S'}(p') ≥ before_S(p) and v' itself finishes at or after
// before_S(p) + c' + p' > D. Either way v' is rejected. Hence the
// packer's ceiling, and the corollary the spider probe is built on: an
// origin whose virtual slaves share Comm and grow in Proc retires at its
// first rejection, so a probe offers at most n + origins candidates.
func (p *Packer) critical(cand platform.VirtualSlave) platform.Time {
	before, tight := p.probe(cand)
	crit := before + cand.Comm + cand.Proc
	if tight != math.MinInt64 {
		if c := tight + cand.Comm; c > crit {
			crit = c
		}
	}
	return crit
}

// probe descends to cand's insertion point (after every node with
// Proc ≥ cand.Proc), accumulating the communication elapsed before it
// and the maximum elapsed+Proc over the displaced suffix (math.MinInt64
// when the suffix is empty). The two feasibility conditions of
// PackSorted are before+Comm+Proc ≤ deadline and deadline−tight ≥ Comm.
func (p *Packer) probe(cand platform.VirtualSlave) (before, tight platform.Time) {
	tight = math.MinInt64
	for id := p.root; id >= 0; {
		nd := &p.nodes[id]
		var left platform.Time
		if nd.left >= 0 {
			left = p.nodes[nd.left].commSum
		}
		if nd.v.Proc < cand.Proc {
			// cand lands before nd: nd and its right subtree are
			// displaced by cand.Comm if we admit.
			upTo := before + left + nd.v.Comm
			if t := upTo + nd.v.Proc; t > tight {
				tight = t
			}
			if nd.right >= 0 {
				if t := upTo - p.nodes[nd.right].minRel; t > tight {
					tight = t
				}
			}
			id = nd.left
		} else {
			before += left + nd.v.Comm
			id = nd.right
		}
	}
	return before, tight
}

// insertCand admits cand unconditionally: callers have already decided.
func (p *Packer) insertCand(cand platform.VirtualSlave) {
	// splitmix64 priorities: deterministic per admitted index, so runs
	// are reproducible.
	p.rng += prioGamma
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	p.nodes = append(p.nodes, treeNode{
		v:       cand,
		prio:    z ^ (z >> 31),
		left:    -1,
		right:   -1,
		commSum: cand.Comm,
		minRel:  -cand.Comm - cand.Proc,
	})
	p.root = p.insert(p.root, int32(len(p.nodes)-1))
}

// insert places node nid into the subtree rooted at id by the emission
// order — left of the first node with strictly smaller Proc — and
// rotates it up while its priority beats its parent's, recomputing
// aggregates along the path.
func (p *Packer) insert(id, nid int32) int32 {
	if id < 0 {
		return nid
	}
	if p.nodes[id].v.Proc < p.nodes[nid].v.Proc {
		p.nodes[id].left = p.insert(p.nodes[id].left, nid)
		if p.nodes[p.nodes[id].left].prio > p.nodes[id].prio {
			id = p.rotateRight(id)
		}
	} else {
		p.nodes[id].right = p.insert(p.nodes[id].right, nid)
		if p.nodes[p.nodes[id].right].prio > p.nodes[id].prio {
			id = p.rotateLeft(id)
		}
	}
	p.update(id)
	return id
}

// rotateRight lifts id's left child; the demoted node is recomputed
// here, the promoted one by the caller's update.
func (p *Packer) rotateRight(id int32) int32 {
	l := p.nodes[id].left
	p.nodes[id].left = p.nodes[l].right
	p.nodes[l].right = id
	p.update(id)
	return l
}

// rotateLeft lifts id's right child.
func (p *Packer) rotateLeft(id int32) int32 {
	r := p.nodes[id].right
	p.nodes[id].right = p.nodes[r].left
	p.nodes[r].left = id
	p.update(id)
	return r
}

// update recomputes id's aggregates from its children. Children's
// aggregates are relative to their own subtree start, so the only
// adjustment is re-basing the right subtree past the left subtree and
// the node's own send.
func (p *Packer) update(id int32) {
	nd := &p.nodes[id]
	var left, right platform.Time
	if nd.left >= 0 {
		left = p.nodes[nd.left].commSum
	}
	if nd.right >= 0 {
		right = p.nodes[nd.right].commSum
	}
	nd.commSum = left + nd.v.Comm + right
	base := left + nd.v.Comm
	m := -base - nd.v.Proc
	if nd.left >= 0 && p.nodes[nd.left].minRel < m {
		m = p.nodes[nd.left].minRel
	}
	if nd.right >= 0 {
		if r := -base + p.nodes[nd.right].minRel; r < m {
			m = r
		}
	}
	nd.minRel = m
}

// Allocation materialises the admitted set in emission order with
// back-to-back emission windows from time 0 — the same layout PackSorted
// produces.
func (p *Packer) Allocation() *Allocation {
	alloc := &Allocation{Deadline: p.deadline, Slaves: make([]Chosen, 0, len(p.nodes))}
	var at platform.Time
	stack := make([]int32, 0, 48)
	id := p.root
	for id >= 0 || len(stack) > 0 {
		for id >= 0 {
			stack = append(stack, id)
			id = p.nodes[id].left
		}
		id = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := p.nodes[id].v
		alloc.Slaves = append(alloc.Slaves, Chosen{VirtualSlave: v, EmitStart: at})
		at += v.Comm
		id = p.nodes[id].right
	}
	return alloc
}
