package platform

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSpider draws a small random spider from the generator regimes.
func randomSpider(r *rand.Rand) Spider {
	g := MustGenerator(r.Int63(), 1, 9, Heterogeneity(r.Intn(4)))
	return g.Spider(1+r.Intn(5), 1+r.Intn(4))
}

// TestHashLegPermutationInvariant: the fingerprint must not depend on
// leg order.
func TestHashLegPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sp := randomSpider(r)
		want := HashSpider(sp)
		for trial := 0; trial < 4; trial++ {
			perm := sp.Clone()
			r.Shuffle(len(perm.Legs), func(i, j int) {
				perm.Legs[i], perm.Legs[j] = perm.Legs[j], perm.Legs[i]
			})
			if HashSpider(perm) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHashRoundTrip: writing a platform file and reading it back must
// preserve the fingerprint, for every kind.
func TestHashRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sp := randomSpider(r)
		var buf bytes.Buffer
		if err := WriteSpider(&buf, sp); err != nil {
			return false
		}
		dec, err := Read(&buf)
		if err != nil {
			return false
		}
		if dec.Hash() != HashSpider(sp) {
			return false
		}

		ch := sp.Legs[0]
		buf.Reset()
		if err := WriteChain(&buf, ch); err != nil {
			return false
		}
		dec, err = Read(&buf)
		if err != nil {
			return false
		}
		if dec.Hash() != HashChain(ch) {
			return false
		}

		fk := Fork{Slaves: ch.Nodes}
		buf.Reset()
		if err := WriteFork(&buf, fk); err != nil {
			return false
		}
		dec, err = Read(&buf)
		if err != nil {
			return false
		}
		return dec.Hash() == HashFork(fk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHashPerturbationDistinct: changing any single parameter, adding a
// node, or adding a leg must change the fingerprint.
func TestHashPerturbationDistinct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sp := randomSpider(r)
		want := HashSpider(sp)

		bump := sp.Clone()
		leg := r.Intn(len(bump.Legs))
		node := r.Intn(bump.Legs[leg].Len())
		if r.Intn(2) == 0 {
			bump.Legs[leg].Nodes[node].Comm++
		} else {
			bump.Legs[leg].Nodes[node].Work++
		}
		if HashSpider(bump) == want {
			return false
		}

		deeper := sp.Clone()
		deeper.Legs[leg].Nodes = append(deeper.Legs[leg].Nodes, Node{Comm: 1, Work: 1})
		if HashSpider(deeper) == want {
			return false
		}

		wider := sp.Clone()
		wider.Legs = append(wider.Legs, Chain{Nodes: []Node{{Comm: 1, Work: 1}}})
		return HashSpider(wider) != want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHashEquivalentForms: a chain hashes as its one-leg spider and a
// fork as its spider form, so equivalent problems share cache entries.
func TestHashEquivalentForms(t *testing.T) {
	ch := NewChain(2, 5, 3, 3)
	if HashChain(ch) != HashSpider(Spider{Legs: []Chain{ch}}) {
		t.Error("chain and one-leg spider fingerprints diverge")
	}
	fk := NewFork(1, 3, 2, 2)
	if HashFork(fk) != HashSpider(fk.Spider()) {
		t.Error("fork and spider-form fingerprints diverge")
	}
	// A fork is NOT its slaves chained: same nodes, different topology.
	if HashFork(fk) == HashChain(Chain{Nodes: fk.Slaves}) {
		t.Error("fork and chain over the same nodes share a fingerprint")
	}
}

// TestHashLegBoundaries: moving a node across a leg boundary changes
// the problem and must change the fingerprint (guards the injective
// length-prefixed encoding).
func TestHashLegBoundaries(t *testing.T) {
	a := NewSpider(NewChain(1, 2, 3, 4), NewChain(5, 6))
	b := NewSpider(NewChain(1, 2), NewChain(3, 4, 5, 6))
	if HashSpider(a) == HashSpider(b) {
		t.Error("different leg boundaries share a fingerprint")
	}
}

// BenchmarkHash measures the fingerprint of wide platforms, the shapes
// every request on the service path hashes.
func BenchmarkHash(b *testing.B) {
	g := MustGenerator(1, 1, 30, Uniform)
	sp, f := g.Spider(1024, 3), g.Fork(1024)
	b.Run("spider1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = HashSpider(sp)
		}
	})
	b.Run("fork1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = HashFork(f)
		}
	})
}

// TestLiteralDigests: the literal digests see numbering that Hash
// normalises away, and tell apart shapes that share a preorder value
// sequence, while equal values always digest equally.
func TestLiteralDigests(t *testing.T) {
	sp := NewSpider(NewChain(2, 5, 3, 3), NewChain(1, 4))
	perm := NewSpider(sp.Legs[1], sp.Legs[0])
	if LiteralSpider(sp) != LiteralSpider(sp.Clone()) {
		t.Error("equal spiders digest differently")
	}
	if LiteralSpider(sp) == LiteralSpider(perm) {
		t.Error("leg-permuted spiders share a literal digest")
	}
	if LiteralChain(sp.Legs[0]) == LiteralChain(NewChain(2, 5)) {
		t.Error("chains of different length share a literal digest")
	}
	// The same preorder (c, w) sequence as a path and as siblings.
	path := Tree{Roots: []TreeNode{{Comm: 1, Work: 1, Children: []TreeNode{{Comm: 2, Work: 2, Children: []TreeNode{{Comm: 3, Work: 3}}}}}}}
	fan := Tree{Roots: []TreeNode{{Comm: 1, Work: 1, Children: []TreeNode{{Comm: 2, Work: 2}, {Comm: 3, Work: 3}}}}}
	swapped := Tree{Roots: []TreeNode{{Comm: 1, Work: 1, Children: []TreeNode{{Comm: 3, Work: 3}, {Comm: 2, Work: 2}}}}}
	if LiteralTree(path) == LiteralTree(fan) || LiteralTree(fan) == LiteralTree(swapped) {
		t.Error("distinct trees share a literal digest")
	}
	if LiteralTree(fan) != LiteralTree(fan.Clone()) || HashTree(fan) != HashTree(swapped) {
		t.Error("equal trees digest differently")
	}
}
