package platform

import (
	"fmt"
	"math/rand"
)

// Heterogeneity selects the statistical regime a random instance is drawn
// from. The regimes match the sweeps of experiment E8 (`msbench -list`):
// the paper's algorithm pays off most when resources differ wildly and
// communication is scarce, so the generator can steer both axes.
type Heterogeneity int

const (
	// Uniform draws c and w independently and uniformly from [lo, hi].
	Uniform Heterogeneity = iota
	// CommBound draws links slower than processors (communication is the
	// bottleneck; favours placing work close to the master).
	CommBound
	// ComputeBound draws processors slower than links (computation is the
	// bottleneck; favours spreading work deep).
	ComputeBound
	// Bimodal mixes "fast" and "slow" resources with a 10x gap,
	// modelling the commodity-volunteer platforms of the introduction
	// (SETI@home, GIMPS).
	Bimodal
)

// String names the regime.
func (h Heterogeneity) String() string {
	switch h {
	case Uniform:
		return "uniform"
	case CommBound:
		return "comm-bound"
	case ComputeBound:
		return "compute-bound"
	case Bimodal:
		return "bimodal"
	default:
		return fmt.Sprintf("Heterogeneity(%d)", int(h))
	}
}

// Generator draws random platforms from a parameterised family. The zero
// value is not useful; use NewGenerator.
type Generator struct {
	rng *rand.Rand
	lo  Time
	hi  Time
	reg Heterogeneity
}

// NewGenerator returns a generator seeded deterministically. Values are
// drawn from [lo, hi] (inclusive) before regime adjustments; lo must be
// at least 1 and hi at least lo.
func NewGenerator(seed int64, lo, hi Time, regime Heterogeneity) (*Generator, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("platform: invalid generator range [%d,%d]", lo, hi)
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi, reg: regime}, nil
}

// MustGenerator is NewGenerator for tests and examples with known-good
// parameters; it panics on error.
func MustGenerator(seed int64, lo, hi Time, regime Heterogeneity) *Generator {
	g, err := NewGenerator(seed, lo, hi, regime)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generator) draw() Time {
	return g.lo + Time(g.rng.Int63n(int64(g.hi-g.lo+1)))
}

// Node draws one processor/link pair according to the regime.
func (g *Generator) Node() Node {
	c, w := g.draw(), g.draw()
	switch g.reg {
	case CommBound:
		// Links at the slow end, processors at the fast end.
		if w > c {
			c, w = w, c
		}
	case ComputeBound:
		if c > w {
			c, w = w, c
		}
	case Bimodal:
		if g.rng.Intn(2) == 0 {
			c *= 10
		}
		if g.rng.Intn(2) == 0 {
			w *= 10
		}
	}
	return Node{Comm: c, Work: w}
}

// Chain draws a chain with p processors.
func (g *Generator) Chain(p int) Chain {
	nodes := make([]Node, p)
	for i := range nodes {
		nodes[i] = g.Node()
	}
	return Chain{Nodes: nodes}
}

// Spider draws a spider with the given number of legs, each with a
// length drawn uniformly from [1, maxDepth].
func (g *Generator) Spider(legs, maxDepth int) Spider {
	ls := make([]Chain, legs)
	for i := range ls {
		depth := 1
		if maxDepth > 1 {
			depth = 1 + g.rng.Intn(maxDepth)
		}
		ls[i] = g.Chain(depth)
	}
	return Spider{Legs: ls}
}

// Tree draws a random tree with the given maximum depth and branching
// factor: 1..branch subtrees hang off the master and every node above
// the depth limit draws 0..branch children, so both the shape and the
// size vary per draw while staying bounded by branch^depth. Node
// parameters follow the generator's heterogeneity regime, exactly as
// for chains and spiders.
func (g *Generator) Tree(depth, branch int) Tree {
	if depth < 1 {
		depth = 1
	}
	if branch < 1 {
		branch = 1
	}
	var grow func(d int) TreeNode
	grow = func(d int) TreeNode {
		nd := g.Node()
		n := TreeNode{Comm: nd.Comm, Work: nd.Work}
		if d < depth {
			kids := g.rng.Intn(branch + 1)
			for i := 0; i < kids; i++ {
				n.Children = append(n.Children, grow(d+1))
			}
		}
		return n
	}
	t := Tree{Roots: make([]TreeNode, 0, branch)}
	roots := 1 + g.rng.Intn(branch)
	for i := 0; i < roots; i++ {
		t.Roots = append(t.Roots, grow(1))
	}
	return t
}

// Fork draws a fork with the given number of slaves.
func (g *Generator) Fork(slaves int) Fork {
	nodes := make([]Node, slaves)
	for i := range nodes {
		nodes[i] = g.Node()
	}
	return Fork{Slaves: nodes}
}

// EnumerateChains calls fn for every chain of length p whose latencies
// and processing times all lie in [1, maxVal]. There are maxVal^(2p)
// chains; the caller bounds the blow-up. Enumeration is used by the
// exhaustive optimality experiments (E4). fn returning false stops the
// enumeration early; EnumerateChains reports whether it ran to
// completion.
func EnumerateChains(p int, maxVal Time, fn func(Chain) bool) bool {
	nodes := make([]Node, p)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p {
			// Copy: the callback may retain the chain.
			c := Chain{Nodes: append([]Node(nil), nodes...)}
			return fn(c)
		}
		for c := Time(1); c <= maxVal; c++ {
			for w := Time(1); w <= maxVal; w++ {
				nodes[i] = Node{Comm: c, Work: w}
				if !rec(i + 1) {
					return false
				}
			}
		}
		return true
	}
	return rec(0)
}
