// Package platform describes the heterogeneous master-slave topologies of
// Dutot, "Master-slave Tasking on Heterogeneous Processors" (IPPS 2003):
// chains of processors (§2, Fig. 1), spider graphs (§6, Fig. 5) and fork
// graphs / stars (§6).
//
// Every processor i is characterised by two integral quantities: the
// latency c_i of its incoming link (the time a task occupies that link)
// and its per-task processing time w_i. Time is an integral number of
// quantums throughout the reproduction, which keeps exhaustive search and
// binary search on deadlines exact.
//
// The master owns the tasks. It is not itself a processor: in a chain the
// master feeds processor 1 through the link of latency c_1; in a spider
// the master is the root and feeds the first processor of every leg, one
// send at a time.
package platform

import (
	"errors"
	"fmt"
	"strings"
)

// Time is an instant or a duration measured in integral task quantums.
// The paper's schedules map tasks to natural numbers; int64 leaves ample
// headroom for the T∞ horizon of large instances.
type Time int64

// MaxTime is the largest representable Time. It is used as an "unreached"
// sentinel by searches.
const MaxTime Time = 1<<63 - 1

// Node is one processor together with its incoming link: Comm is the link
// latency c (time a task occupies the link) and Work the processing time
// w (time a task occupies the processor).
type Node struct {
	Comm Time `json:"c"`
	Work Time `json:"w"`
}

// Validate reports whether the node parameters are admissible. Both the
// link latency and the processing time must be positive: a zero latency
// would let the link carry unbounded traffic in zero time and a zero
// processing time would make the processor infinitely fast, both of which
// fall outside the paper's model.
func (n Node) Validate() error {
	if n.Comm <= 0 {
		return fmt.Errorf("platform: link latency %d is not positive", n.Comm)
	}
	if n.Work <= 0 {
		return fmt.Errorf("platform: processing time %d is not positive", n.Work)
	}
	return nil
}

// String renders the node as "(c,w)".
func (n Node) String() string { return fmt.Sprintf("(c=%d,w=%d)", n.Comm, n.Work) }

// Chain is a line of processors fed by the master at one end (Fig. 1).
// Nodes[0] is processor 1, the processor closest to the master; the
// paper's indices are 1-based so Nodes[i-1] carries c_i and w_i.
type Chain struct {
	Nodes []Node `json:"nodes"`
}

// NewChain builds a chain from alternating latency/work pairs. It is a
// convenience for tests and examples:
//
//	NewChain(2, 5, 3, 3)  // c1=2 w1=5, c2=3 w2=3
//
// It panics if the argument count is odd; use Chain literals when the
// values come from untrusted input.
func NewChain(cw ...Time) Chain {
	if len(cw)%2 != 0 {
		panic("platform.NewChain: odd number of arguments, want (c,w) pairs")
	}
	nodes := make([]Node, 0, len(cw)/2)
	for i := 0; i < len(cw); i += 2 {
		nodes = append(nodes, Node{Comm: cw[i], Work: cw[i+1]})
	}
	return Chain{Nodes: nodes}
}

// Len returns the number of processors p.
func (ch Chain) Len() int { return len(ch.Nodes) }

// Comm returns c_i for the 1-based processor index i.
func (ch Chain) Comm(i int) Time { return ch.Nodes[i-1].Comm }

// Work returns w_i for the 1-based processor index i.
func (ch Chain) Work(i int) Time { return ch.Nodes[i-1].Work }

// Validate checks that the chain is non-empty and every node is
// admissible.
func (ch Chain) Validate() error {
	if len(ch.Nodes) == 0 {
		return errors.New("platform: chain has no processors")
	}
	for i, n := range ch.Nodes {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("processor %d: %w", i+1, err)
		}
	}
	return nil
}

// Sub returns the sub-chain starting at 1-based processor from, i.e. the
// chain (c_from..c_p, w_from..w_p) used by Lemma 2. The returned chain
// shares the underlying node slice.
func (ch Chain) Sub(from int) Chain {
	return Chain{Nodes: ch.Nodes[from-1:]}
}

// Clone returns a deep copy of the chain.
func (ch Chain) Clone() Chain {
	nodes := make([]Node, len(ch.Nodes))
	copy(nodes, ch.Nodes)
	return Chain{Nodes: nodes}
}

// PathComm returns the cumulative communication time Σ_{j=1..k} c_j a
// task pays to reach the 1-based processor k.
func (ch Chain) PathComm(k int) Time {
	var sum Time
	for j := 1; j <= k; j++ {
		sum += ch.Comm(j)
	}
	return sum
}

// SoloTaskTime returns the completion time of a single task executed on
// the 1-based processor k of an otherwise idle chain: the full path
// communication plus the processing time.
func (ch Chain) SoloTaskTime(k int) Time {
	return ch.PathComm(k) + ch.Work(k)
}

// BestSoloProc returns the 1-based processor minimising SoloTaskTime,
// i.e. the optimal placement for a single task (the paper's n = 1 base
// case), together with that time.
func (ch Chain) BestSoloProc() (proc int, t Time) {
	proc, t = 1, ch.SoloTaskTime(1)
	for k := 2; k <= ch.Len(); k++ {
		if st := ch.SoloTaskTime(k); st < t {
			proc, t = k, st
		}
	}
	return proc, t
}

// MasterOnlyMakespan returns T∞ = c_1 + (n−1)·max(w_1, c_1) + w_1, the
// makespan of the trivial schedule that places all n tasks on the first
// processor (§3). It is the backward construction's horizon and a valid
// upper bound for the optimal makespan.
func (ch Chain) MasterOnlyMakespan(n int) Time {
	if n <= 0 || len(ch.Nodes) == 0 {
		return 0
	}
	c1, w1 := ch.Comm(1), ch.Work(1)
	return c1 + Time(n-1)*max(w1, c1) + w1
}

// HorizonOK reports whether scheduling n tasks on the chain stays
// clear of integer overflow. Callers taking untrusted platforms
// (cmd/msched, the scheduling service) reject inputs that fail this
// check instead of surfacing wrapped arithmetic as baffling internal
// errors — or worse, silently wrong schedules.
//
// The condition is conservative but provably sufficient for every
// arithmetic path in the solvers. Let S = Σ_j (c_j + w_j) over the
// whole chain (computed with checked summation). The backward engine's
// state starts at the horizon ≤ n·S (MasterOnlyMakespan uses only
// node-1 values, each ≤ S) and each candidate chain subtracts at most
// S, so after n placements every value lies in [−(n+1)·S, n·S]; the
// fork packing adds emission prefix sums (≤ n·S) to virtual-slave
// processing times (≤ (n+1)·S). Requiring 4·(n+1)·S ≤ MaxTime
// therefore keeps every intermediate within the representable range.
// The bound is astronomically generous for sane platforms: at the
// service's default per-query limit of 2²⁰ tasks it still admits
// parameter sums beyond 10¹².
func (ch Chain) HorizonOK(n int) bool {
	if n <= 0 || len(ch.Nodes) == 0 {
		return true
	}
	nn := Time(n)
	if nn >= MaxTime/4 {
		return false
	}
	var sum Time
	for _, nd := range ch.Nodes {
		if nd.Comm > MaxTime-sum {
			return false
		}
		sum += nd.Comm
		if nd.Work > MaxTime-sum {
			return false
		}
		sum += nd.Work
	}
	return sum <= MaxTime/(4*(nn+1))
}

// CheckHorizon is HorizonOK as an error, so every untrusted-input
// boundary rejects oversized platforms with one consistent message.
func (ch Chain) CheckHorizon(n int) error {
	if ch.HorizonOK(n) {
		return nil
	}
	return horizonErr(n)
}

func horizonErr(n int) error {
	return fmt.Errorf("platform: values or task count too large: the %d-task horizon overflows the integral time range", n)
}

// String renders the chain in the style of Fig. 1:
//
//	M --2--> [5] --3--> [3]
func (ch Chain) String() string {
	var b strings.Builder
	b.WriteString("M")
	for _, n := range ch.Nodes {
		fmt.Fprintf(&b, " --%d--> [%d]", n.Comm, n.Work)
	}
	return b.String()
}

// Spider is a tree whose only node allowed an arity greater than 2 is the
// master at the root (§6, Fig. 5): a bundle of chains ("legs") fed by a
// single master that performs one send at a time.
type Spider struct {
	Legs []Chain `json:"legs"`
}

// NewSpider builds a spider from the given legs.
func NewSpider(legs ...Chain) Spider { return Spider{Legs: legs} }

// NumLegs returns the number of chains hanging off the master.
func (sp Spider) NumLegs() int { return len(sp.Legs) }

// NumProcs returns the total number of processors p over all legs.
func (sp Spider) NumProcs() int {
	total := 0
	for _, leg := range sp.Legs {
		total += leg.Len()
	}
	return total
}

// Validate checks that the spider has at least one leg and that every leg
// is a valid chain.
func (sp Spider) Validate() error {
	if len(sp.Legs) == 0 {
		return errors.New("platform: spider has no legs")
	}
	for i, leg := range sp.Legs {
		if err := leg.Validate(); err != nil {
			return fmt.Errorf("leg %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the spider.
func (sp Spider) Clone() Spider {
	legs := make([]Chain, len(sp.Legs))
	for i, leg := range sp.Legs {
		legs[i] = leg.Clone()
	}
	return Spider{Legs: legs}
}

// MasterOnlyMakespan returns the makespan of the trivial schedule placing
// every task on the best single processor-1 among the legs; a safe upper
// bound for deadline searches.
func (sp Spider) MasterOnlyMakespan(n int) Time {
	best := MaxTime
	for _, leg := range sp.Legs {
		if m := leg.MasterOnlyMakespan(n); m < best {
			best = m
		}
	}
	return best
}

// HorizonOK reports whether every leg passes Chain.HorizonOK for n
// tasks. All legs must pass, not just the one realising
// MasterOnlyMakespan: the spider solver grows a backward plan on every
// leg, so an oversized leg overflows even when a sane leg provides the
// search bound.
func (sp Spider) HorizonOK(n int) bool {
	for _, leg := range sp.Legs {
		if !leg.HorizonOK(n) {
			return false
		}
	}
	return true
}

// CheckHorizon is HorizonOK as an error (see Chain.CheckHorizon).
func (sp Spider) CheckHorizon(n int) error {
	if sp.HorizonOK(n) {
		return nil
	}
	return horizonErr(n)
}

// String renders the spider as one line per leg:
//
//	spider{
//	  M --2--> [5] --3--> [3]
//	  M --1--> [4]
//	}
func (sp Spider) String() string {
	var b strings.Builder
	b.WriteString("spider{\n")
	for _, leg := range sp.Legs {
		fmt.Fprintf(&b, "  %s\n", leg)
	}
	b.WriteString("}")
	return b.String()
}

// Fork is a fork graph (star): every slave is directly connected to the
// master through its own link (§6). It coincides with a spider whose legs
// all have length 1.
type Fork struct {
	Slaves []Node `json:"slaves"`
}

// NewFork builds a fork from alternating latency/work pairs, in the style
// of NewChain.
func NewFork(cw ...Time) Fork {
	return Fork{Slaves: NewChain(cw...).Nodes}
}

// Len returns the number of slaves.
func (f Fork) Len() int { return len(f.Slaves) }

// Validate checks the fork is non-empty with admissible slaves.
func (f Fork) Validate() error {
	if len(f.Slaves) == 0 {
		return errors.New("platform: fork has no slaves")
	}
	for i, n := range f.Slaves {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("slave %d: %w", i+1, err)
		}
	}
	return nil
}

// HorizonOK reports whether every slave passes Chain.HorizonOK for n
// tasks, via the spider form the fork solves as.
func (f Fork) HorizonOK(n int) bool {
	return f.Spider().HorizonOK(n)
}

// CheckHorizon is HorizonOK as an error (see Chain.CheckHorizon).
func (f Fork) CheckHorizon(n int) error {
	if f.HorizonOK(n) {
		return nil
	}
	return horizonErr(n)
}

// Spider converts the fork into the equivalent spider with single-node
// legs, so chain/spider machinery applies uniformly. The legs share one
// copy of the slaves, each capped at its own node.
func (f Fork) Spider() Spider {
	nodes := make([]Node, len(f.Slaves))
	copy(nodes, f.Slaves)
	legs := make([]Chain, len(nodes))
	for i := range nodes {
		legs[i] = Chain{Nodes: nodes[i : i+1 : i+1]}
	}
	return Spider{Legs: legs}
}

// String renders the fork as a star.
func (f Fork) String() string {
	var b strings.Builder
	b.WriteString("fork{")
	for i, n := range f.Slaves {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "M--%d-->[%d]", n.Comm, n.Work)
	}
	b.WriteString("}")
	return b.String()
}
