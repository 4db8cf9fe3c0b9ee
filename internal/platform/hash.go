package platform

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
)

// Hash is a canonical platform fingerprint, used by the scheduling
// service to key caches of warmed solvers. Two platforms share a hash
// exactly when they pose the same scheduling problem:
//
//   - spiders are order-normalized over legs, so isomorphic spiders
//     (same multiset of legs, any order) share an entry;
//   - a chain hashes as the one-leg spider it is equivalent to;
//   - a fork hashes as its single-node-leg spider form (Fork.Spider).
//
// The fingerprint is SHA-256 over an injective canonical encoding, so
// distinct problems collide only with cryptographic improbability —
// safe to treat hash equality as platform equivalence.
type Hash [sha256.Size]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// appendLeg serialises one leg injectively onto buf: node count then
// (c, w) pairs, all as fixed-width big-endian. The length prefix keeps
// leg boundaries unambiguous when encodings are concatenated.
func appendLeg(buf []byte, nodes []Node) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(nodes)))
	for _, n := range nodes {
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Comm))
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.Work))
	}
	return buf
}

// legBytes is the encoded size of a leg of n nodes.
func legBytes(n int) int { return 8 + 16*n }

// LegKey returns the injective canonical encoding of a chain as a
// string, suitable as a map key. Two chains share a key exactly when
// they are the same leg — same length, same (c, w) sequence — which is
// what the spider solver's isomorphic-leg dedup needs: unlike Hash it
// is collision-free by construction and costs no cryptographic pass.
func LegKey(ch Chain) string {
	return string(appendLeg(make([]byte, 0, legBytes(len(ch.Nodes))), ch.Nodes))
}

// CompareLegs orders two legs by value, exactly as the canonical
// fingerprint orders them: by node count, then node by node on (c, w).
// Equal legs compare 0.
func CompareLegs(a, b Chain) int { return cmpLegs(a.Nodes, b.Nodes) }

// cmpLegs orders two legs exactly as bytes.Compare orders their
// appendLeg encodings: by node count (equal counts mean equal encoded
// lengths), then node by node on (c, w), each compared as the unsigned
// big-endian word it is encoded as. Comparing the values directly keeps
// the sort free of per-leg encodings.
func cmpLegs(a, b []Node) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i := range a {
		if c := cmpNode(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpNode(a, b Node) int {
	if c := cmp.Compare(uint64(a.Comm), uint64(b.Comm)); c != 0 {
		return c
	}
	return cmp.Compare(uint64(a.Work), uint64(b.Work))
}

const spiderDomain = "ms-platform/v1"

func writeCount(h hash.Hash, n int) {
	var cnt [8]byte
	binary.BigEndian.PutUint64(cnt[:], uint64(n))
	h.Write(cnt[:])
}

func sum(h hash.Hash) Hash {
	var out Hash
	h.Sum(out[:0])
	return out
}

// sumLegs digests count legs under the spider domain tag, in the order
// leg(0..count-1) yields them, as one buffer and one SHA-256 pass.
func sumLegs(count, size int, leg func(i int) []Node) Hash {
	buf := make([]byte, 0, len(spiderDomain)+8+size)
	buf = append(buf, spiderDomain...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(count))
	for i := 0; i < count; i++ {
		buf = appendLeg(buf, leg(i))
	}
	return sha256.Sum256(buf)
}

// HashSpider returns the canonical fingerprint of the spider. Legs are
// hashed in the byte order of their encodings, so any permutation of
// the same legs produces the same hash.
func HashSpider(sp Spider) Hash {
	order := make([]int, len(sp.Legs))
	size := 0
	for i, leg := range sp.Legs {
		order[i] = i
		size += legBytes(len(leg.Nodes))
	}
	slices.SortFunc(order, func(i, j int) int { return cmpLegs(sp.Legs[i].Nodes, sp.Legs[j].Nodes) })
	return sumLegs(len(order), size, func(i int) []Node { return sp.Legs[order[i]].Nodes })
}

// HashChain returns the fingerprint of the chain: the hash of the
// equivalent one-leg spider.
func HashChain(ch Chain) Hash {
	return HashSpider(Spider{Legs: []Chain{ch}})
}

// HashFork returns the fingerprint of the fork: the hash of its
// single-node-leg spider form, so a fork and Fork.Spider() share a
// cache entry. Each slave is encoded as its one-node leg directly,
// without materialising the spider.
func HashFork(f Fork) Hash {
	slaves := slices.Clone(f.Slaves)
	slices.SortFunc(slaves, cmpNode)
	return sumLegs(len(slaves), len(slaves)*legBytes(1), func(i int) []Node { return slaves[i : i+1] })
}

// encodeTreeNode serialises one subtree injectively and canonically:
// the node's (c, w) pair and child count as fixed-width big-endian,
// followed by the child encodings sorted by bytes. The count prefix
// makes every encoding self-delimiting, so the sorted concatenation
// parses unambiguously; sorting at every level makes the encoding — and
// therefore HashTree — invariant under any permutation of siblings,
// the tree analogue of HashSpider's leg-order normalisation.
func encodeTreeNode(n TreeNode) []byte {
	encs := make([][]byte, len(n.Children))
	total := 0
	for i, c := range n.Children {
		encs[i] = encodeTreeNode(c)
		total += len(encs[i])
	}
	slices.SortFunc(encs, bytes.Compare)
	buf := make([]byte, 0, 24+total)
	buf = binary.BigEndian.AppendUint64(buf, uint64(n.Comm))
	buf = binary.BigEndian.AppendUint64(buf, uint64(n.Work))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(n.Children)))
	for _, e := range encs {
		buf = append(buf, e...)
	}
	return buf
}

// HashTree returns the canonical fingerprint of the tree. Sibling
// subtrees are order-normalised at every level, so isomorphic trees
// (same shape and parameters up to sibling permutation) share a hash —
// the same guarantee HashSpider gives over legs. A spider-shaped tree
// hashes as the spider it is (HashTree(TreeFromSpider(sp)) ==
// HashSpider(sp)); genuinely branchy trees hash under their own domain
// tag and can never collide with a spider's fingerprint.
func HashTree(t Tree) Hash {
	if sp, ok := t.SpiderForm(); ok {
		return HashSpider(sp)
	}
	h := sha256.New()
	h.Write([]byte("ms-tree/v1"))
	encs := make([][]byte, len(t.Roots))
	for i, r := range t.Roots {
		encs[i] = encodeTreeNode(r)
	}
	slices.SortFunc(encs, bytes.Compare)
	writeCount(h, len(encs))
	for _, e := range encs {
		h.Write(e)
	}
	return sum(h)
}

// Hash returns the fingerprint of whichever platform the decoded file
// carries.
func (d Decoded) Hash() Hash {
	switch d.Kind {
	case "chain":
		return HashChain(*d.Chain)
	case "spider":
		return HashSpider(*d.Spider)
	case "tree":
		return HashTree(*d.Tree)
	default:
		return HashFork(*d.Fork)
	}
}

// The literal digests below fingerprint a platform exactly as given —
// legs, slaves and siblings in their written order — where Hash
// normalises order away. Two platforms share a literal digest exactly
// when they decode to the same values, so whitespace and key order on
// the wire never matter but numbering does: the scheduling service
// keys request coalescing by it, because a coalesced joiner receives
// the leader's schedule verbatim, in the leader's numbering. Each
// digest is SHA-256 over a kind tag and an injective in-order binary
// encoding, so no reflection or JSON runs on the request path.

// LiteralChain returns the literal digest of a chain.
func LiteralChain(ch Chain) Hash {
	return sha256.Sum256(appendLeg([]byte("ms-literal/chain"), ch.Nodes))
}

// LiteralSpider returns the literal digest of a spider: its legs in
// order. The service digests a fork through its Fork.Spider form.
func LiteralSpider(sp Spider) Hash {
	h := sha256.New()
	h.Write([]byte("ms-literal/spider"))
	writeCount(h, len(sp.Legs))
	var buf []byte
	for _, leg := range sp.Legs {
		buf = appendLeg(buf[:0], leg.Nodes)
		h.Write(buf)
	}
	return sum(h)
}

// LiteralTree returns the literal digest of a tree: a preorder walk
// writing each node's (c, w) and child count, which determines the
// tree including sibling order.
func LiteralTree(t Tree) Hash {
	h := sha256.New()
	h.Write([]byte("ms-literal/tree"))
	writeCount(h, len(t.Roots))
	var rec [24]byte
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		binary.BigEndian.PutUint64(rec[0:], uint64(n.Comm))
		binary.BigEndian.PutUint64(rec[8:], uint64(n.Work))
		binary.BigEndian.PutUint64(rec[16:], uint64(len(n.Children)))
		h.Write(rec[:])
		for i := range n.Children {
			walk(&n.Children[i])
		}
	}
	for i := range t.Roots {
		walk(&t.Roots[i])
	}
	return sum(h)
}
