package platform

import (
	"bytes"
	"sync"
)

// This file is the request-path decoder of the tagged platform
// envelope. Every platform a client, router or shard receives arrives
// as envelope bytes, and a 1024-leg spider is about 180 KB of indented
// JSON: decoding it through encoding/json costs four scans and a
// reflective walk, several milliseconds, more than a warm solve. The
// canonical decoder below reads the envelope in one pass, without
// reflection, straight into exactly-sized slices.
//
// It understands only the canonical grammar: the envelopes WriteChain,
// WriteSpider, WriteFork and WriteTree produce, compacted or not, in
// any whitespace and any key order — every key unescaped and known,
// at most once per object, every number a plain decimal integer of at
// most 18 digits, exactly one body and it the one the kind names. On
// anything else it reports failure and Decode runs the encoding/json
// reference (decodeJSON) on the whole input instead, so escaped,
// unknown, case-variant or duplicate keys, null, non-integer or
// out-of-range numbers and every syntax error get exactly the
// reference's values and error strings. Within the grammar the two
// agree by construction; FuzzDecode checks that they do everywhere.

// Decode decodes the tagged platform document held in b and validates
// it, exactly as Read does for a reader holding b: the same accepted
// inputs, the same values and the same error strings. Bytes after the
// first JSON value are ignored.
func Decode(b []byte) (Decoded, error) {
	d, ok := decodeCanonical(b)
	if !ok {
		return decodeJSON(b)
	}
	if err := d.validate(); err != nil {
		return Decoded{}, err
	}
	return d, nil
}

// validate runs the decoded platform's own Validate.
func (d Decoded) validate() error {
	switch {
	case d.Chain != nil:
		return d.Chain.Validate()
	case d.Spider != nil:
		return d.Spider.Validate()
	case d.Fork != nil:
		return d.Fork.Validate()
	default:
		return d.Tree.Validate()
	}
}

// maxWireTreeDepth caps the tree levels the canonical decoder descends
// before handing the input to the reference, whose own nesting limit
// (10 000 JSON levels, two per tree level) then decides. Tree input is
// untrusted, so the recursion must be bounded.
const maxWireTreeDepth = 1000

// wireKey names one object key of the canonical grammar.
type wireKey uint8

const (
	keyNone wireKey = iota // not a canonical key: fall back
	keyKind
	keyChain
	keySpider
	keyFork
	keyTree
	keyNodes
	keyLegs
	keySlaves
	keyRoots
	keyC
	keyW
	keyChildren
)

func wireKeyOf(raw []byte) wireKey {
	switch string(raw) {
	case "kind":
		return keyKind
	case "chain":
		return keyChain
	case "spider":
		return keySpider
	case "fork":
		return keyFork
	case "tree":
		return keyTree
	case "nodes":
		return keyNodes
	case "legs":
		return keyLegs
	case "slaves":
		return keySlaves
	case "roots":
		return keyRoots
	case "c":
		return keyC
	case "w":
		return keyW
	case "children":
		return keyChildren
	}
	return keyNone
}

// legMark closes one spider leg: the end of its nodes in wireDecoder.nodes
// and whether the leg carried a "nodes" key at all (an absent key
// decodes to a nil slice, an empty array to an empty one).
type legMark struct {
	end      int
	hasNodes bool
}

// wireDecoder is the canonical decoder's state. The scratch slices are
// reused across decodes through wirePool; results are always copied out
// of them into exactly-sized slices.
type wireDecoder struct {
	b     []byte
	i     int
	nodes []Node     // chain, spider or fork nodes in document order
	legs  []legMark  // spider legs in document order
	sibs  []TreeNode // tree siblings, a stack of the open child lists
}

var wirePool = sync.Pool{New: func() any { return new(wireDecoder) }}

// maxPooledNodes bounds the scratch a pooled decoder keeps, so one huge
// platform does not pin its scratch for the life of the process.
const maxPooledNodes = 1 << 16

// decodeCanonical decodes b if it is in the canonical grammar and
// reports whether it was. The result is not yet validated.
func decodeCanonical(b []byte) (Decoded, bool) {
	d := wirePool.Get().(*wireDecoder)
	d.b, d.i = b, 0
	out, ok := d.envelope()
	d.b = nil
	// A successful decode leaves the sibling stack empty and cleared, so
	// its cost does not depend on what earlier decodes left in the
	// pooled scratch. A failed one can leave children slices above the
	// stack top; drop them so the pool pins no platform memory.
	if !ok {
		clear(d.sibs[:cap(d.sibs)])
	}
	d.nodes, d.legs, d.sibs = d.nodes[:0], d.legs[:0], d.sibs[:0]
	if cap(d.nodes)+cap(d.sibs) <= maxPooledNodes && cap(d.legs) <= maxPooledNodes {
		wirePool.Put(d)
	}
	return out, ok
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (d *wireDecoder) peek() byte {
	b, i := d.b, d.i
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			d.i = i
			return c
		}
	}
	d.i = i
	return 0
}

// eat consumes c, after whitespace, if it comes next.
func (d *wireDecoder) eat(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

// str reads a string and returns its raw bytes. Canonical strings hold
// no escapes, so the raw bytes up to the next quote are the whole
// string whenever they match a canonical name; callers reject any
// other content, which is how escaped strings reach the reference.
func (d *wireDecoder) str() ([]byte, bool) {
	if d.peek() != '"' {
		return nil, false
	}
	lo := d.i + 1
	n := bytes.IndexByte(d.b[lo:], '"')
	if n < 0 {
		return nil, false
	}
	d.i = lo + n + 1
	return d.b[lo : lo+n], true
}

// object parses an object whose every key is canonical and appears at
// most once; member consumes the value of each key and reports whether
// the key belongs in this object and its value parsed.
func (d *wireDecoder) object(member func(k wireKey) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint32
	for {
		raw, ok := d.str()
		if !ok {
			return false
		}
		k := wireKeyOf(raw)
		if k == keyNone || seen&(1<<k) != 0 || !d.eat(':') || !member(k) {
			return false
		}
		seen |= 1 << k
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// array parses an array, elem consuming each element.
func (d *wireDecoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

// time reads a plain decimal integer of at most 18 digits, which always
// fits a Time. Longer numbers, fractions and exponents are left to the
// reference, whose range and type errors then apply.
func (d *wireDecoder) time(dst *Time) bool {
	d.peek()
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v Time
	for ; i < len(d.b) && d.b[i] >= '0' && d.b[i] <= '9'; i++ {
		v = v*10 + Time(d.b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && d.b[start] == '0') {
		return false
	}
	if neg {
		v = -v
	}
	d.i, *dst = i, v
	return true
}

// node parses one {"c": …, "w": …} object onto the nodes scratch.
func (d *wireDecoder) node() bool {
	var n Node
	ok := d.object(func(k wireKey) bool {
		switch k {
		case keyC:
			return d.time(&n.Comm)
		case keyW:
			return d.time(&n.Work)
		}
		return false
	})
	d.nodes = append(d.nodes, n)
	return ok
}

// nodeList parses an object whose only key is key, holding an array of
// nodes — a chain's {"nodes": […]} or a fork's {"slaves": […]} — onto
// the nodes scratch, and reports whether the key was present.
func (d *wireDecoder) nodeList(key wireKey) (present, ok bool) {
	ok = d.object(func(k wireKey) bool {
		present = k == key
		return present && d.array(d.node)
	})
	return present, ok
}

// takeNodes copies the nodes scratch into an exactly-sized slice: nil
// when the list's key was absent, empty but non-nil for [].
func (d *wireDecoder) takeNodes(present bool) []Node {
	if !present {
		return nil
	}
	out := make([]Node, len(d.nodes))
	copy(out, d.nodes)
	return out
}

// spider parses a {"legs": […]} object. All legs share one exactly-sized
// backing array, each capped at its own end so an append to one leg
// cannot run into the next.
func (d *wireDecoder) spider() (*Spider, bool) {
	var sp Spider
	hasLegs := false
	ok := d.object(func(k wireKey) bool {
		hasLegs = k == keyLegs
		return hasLegs && d.array(func() bool {
			has, ok := d.nodeList(keyNodes)
			d.legs = append(d.legs, legMark{len(d.nodes), has})
			return ok
		})
	})
	if !ok {
		return nil, false
	}
	if hasLegs {
		backing := d.takeNodes(true)
		sp.Legs = make([]Chain, len(d.legs))
		lo := 0
		for i, m := range d.legs {
			if m.hasNodes {
				sp.Legs[i].Nodes = backing[lo:m.end:m.end]
			}
			lo = m.end
		}
	}
	return &sp, true
}

// treeList parses an array of tree nodes into an exactly-sized slice,
// building it on top of the sibling stack.
func (d *wireDecoder) treeList(depth int) ([]TreeNode, bool) {
	if depth > maxWireTreeDepth {
		return nil, false
	}
	mark := len(d.sibs)
	ok := d.array(func() bool {
		n, ok := d.treeNode(depth)
		d.sibs = append(d.sibs, n)
		return ok
	})
	if !ok {
		return nil, false
	}
	out := make([]TreeNode, len(d.sibs)-mark)
	copy(out, d.sibs[mark:])
	clear(d.sibs[mark:])
	d.sibs = d.sibs[:mark]
	return out, true
}

func (d *wireDecoder) treeNode(depth int) (TreeNode, bool) {
	var n TreeNode
	ok := d.object(func(k wireKey) bool {
		switch k {
		case keyC:
			return d.time(&n.Comm)
		case keyW:
			return d.time(&n.Work)
		case keyChildren:
			var ok bool
			n.Children, ok = d.treeList(depth + 1)
			return ok
		}
		return false
	})
	return n, ok
}

// body parses the platform object under the envelope key k into out.
func (d *wireDecoder) body(k wireKey, out *Decoded) bool {
	switch k {
	case keyChain:
		has, ok := d.nodeList(keyNodes)
		out.Kind, out.Chain = "chain", &Chain{Nodes: d.takeNodes(has)}
		return ok
	case keySpider:
		sp, ok := d.spider()
		out.Kind, out.Spider = "spider", sp
		return ok
	case keyFork:
		has, ok := d.nodeList(keySlaves)
		out.Kind, out.Fork = "fork", &Fork{Slaves: d.takeNodes(has)}
		return ok
	default:
		var t Tree
		ok := d.object(func(k wireKey) bool {
			var ok bool
			if k == keyRoots {
				t.Roots, ok = d.treeList(1)
			}
			return ok
		})
		out.Kind, out.Tree = "tree", &t
		return ok
	}
}

// envelope parses the tagged envelope: a known kind and exactly the
// one body it names, in either order. Bytes after it are ignored.
func (d *wireDecoder) envelope() (Decoded, bool) {
	var out Decoded
	kind, body := keyNone, keyNone
	ok := d.object(func(k wireKey) bool {
		switch k {
		case keyKind:
			raw, ok := d.str()
			kind = wireKeyOf(raw)
			return ok && kind >= keyChain && kind <= keyTree
		case keyChain, keySpider, keyFork, keyTree:
			if body != keyNone {
				return false
			}
			body = k
			return d.body(k, &out)
		}
		return false
	})
	if !ok || kind == keyNone || kind != body {
		return Decoded{}, false
	}
	return out, true
}
