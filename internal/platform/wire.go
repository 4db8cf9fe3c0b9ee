package platform

import (
	"sync"

	"repro/internal/jsonscan"
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

// The canonical grammar's key tables, one per object. An envelope's
// kind value names its body by the body's index in envelopeKeys.
var (
	envelopeKeys = []string{"kind", "chain", "spider", "fork", "tree"}
	nodeKeys     = []string{"c", "w"}
	treeNodeKeys = []string{"c", "w", "children"}
	nodesKeys    = []string{"nodes"}
	slavesKeys   = []string{"slaves"}
	legsKeys     = []string{"legs"}
	rootsKeys    = []string{"roots"}
)

const (
	envKind = iota
	envChain
	envSpider
	envFork
	envTree
)

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
	jsonscan.Scanner
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
	d.B, d.I = b, 0
	out, ok := d.envelope()
	d.B = nil
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

// node parses one {"c": …, "w": …} object onto the nodes scratch.
func (d *wireDecoder) node() bool {
	var n Node
	ok := d.Object(nodeKeys, func(k int) bool {
		if k == 0 {
			return jsonscan.Int(&d.Scanner, &n.Comm)
		}
		return jsonscan.Int(&d.Scanner, &n.Work)
	})
	d.nodes = append(d.nodes, n)
	return ok
}

// nodeList parses an object whose only key is keys[0], holding an
// array of nodes — a chain's {"nodes": […]} or a fork's {"slaves": […]}
// — onto the nodes scratch, and reports whether the key was present.
func (d *wireDecoder) nodeList(keys []string) (present, ok bool) {
	ok = d.Object(keys, func(int) bool {
		present = true
		return d.Array(d.node)
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
	ok := d.Object(legsKeys, func(int) bool {
		hasLegs = true
		return d.Array(func() bool {
			has, ok := d.nodeList(nodesKeys)
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

// treeList parses an array of tree nodes at JSON nesting depth (the
// envelope is depth 0) into an exactly-sized slice, building it on top
// of the sibling stack. Tree input is untrusted, so the recursion stops
// at jsonscan.MaxDepth and leaves deeper trees to the reference.
func (d *wireDecoder) treeList(depth int) ([]TreeNode, bool) {
	if depth+1 >= jsonscan.MaxDepth {
		return nil, false
	}
	mark := len(d.sibs)
	ok := d.Array(func() bool {
		n, ok := d.treeNode(depth + 1)
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
	ok := d.Object(treeNodeKeys, func(k int) bool {
		switch k {
		case 0:
			return jsonscan.Int(&d.Scanner, &n.Comm)
		case 1:
			return jsonscan.Int(&d.Scanner, &n.Work)
		}
		var ok bool
		n.Children, ok = d.treeList(depth + 1)
		return ok
	})
	return n, ok
}

// body parses the platform object under the envelope key envelopeKeys[k]
// into out.
func (d *wireDecoder) body(k int, out *Decoded) bool {
	switch k {
	case envChain:
		has, ok := d.nodeList(nodesKeys)
		out.Kind, out.Chain = "chain", &Chain{Nodes: d.takeNodes(has)}
		return ok
	case envSpider:
		sp, ok := d.spider()
		out.Kind, out.Spider = "spider", sp
		return ok
	case envFork:
		has, ok := d.nodeList(slavesKeys)
		out.Kind, out.Fork = "fork", &Fork{Slaves: d.takeNodes(has)}
		return ok
	default:
		var t Tree
		ok := d.Object(rootsKeys, func(int) bool {
			var ok bool
			t.Roots, ok = d.treeList(2)
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
	// kind and body stay envKind, which names no body, until read.
	kind, body := envKind, envKind
	ok := d.Object(envelopeKeys, func(k int) bool {
		switch {
		case k == envKind:
			kind = d.Key(envelopeKeys)
			return kind > envKind
		case body != envKind: // a second body
			return false
		}
		body = k
		return d.body(k, &out)
	})
	if !ok || kind == envKind || kind != body {
		return Decoded{}, false
	}
	return out, true
}
