package platform

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/jsonscan"
)

// sameAsReference fails unless Decode agrees with the encoding/json
// reference on b: DeepEqual values, or identical error strings.
func sameAsReference(t testing.TB, b []byte) {
	t.Helper()
	got, gotErr := Decode(b)
	want, wantErr := decodeJSON(b)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("input %.200q: Decode error %v, reference %v", b, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %.200q: Decode %+v, reference %+v", b, got, want)
	}
}

func sampleTree() Tree {
	return Tree{Roots: []TreeNode{
		{Comm: 2, Work: 5, Children: []TreeNode{
			{Comm: 3, Work: 3},
			{Comm: 1, Work: 4, Children: []TreeNode{{Comm: 6, Work: 2}}},
		}},
		{Comm: 4, Work: 1, Children: []TreeNode{}},
	}}
}

// writerEnvelopes returns the indented envelopes the writers produce
// for one platform of each kind.
func writerEnvelopes(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteChain(b, NewChain(2, 5, 3, 3)) },
		func(b *bytes.Buffer) error {
			return WriteSpider(b, NewSpider(NewChain(2, 5, 3, 3), NewChain(1, 4), NewChain(3, 2, 1, 6)))
		},
		func(b *bytes.Buffer) error { return WriteFork(b, NewFork(2, 5, 1, 4, 3, 3)) },
		func(b *bytes.Buffer) error { return WriteTree(b, sampleTree()) },
		func(b *bytes.Buffer) error { return WriteSpider(b, MustGenerator(3, 1, 30, Uniform).Spider(64, 4)) },
		func(b *bytes.Buffer) error { return WriteTree(b, MustGenerator(4, 1, 30, Uniform).Tree(4, 3)) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// compact re-encodes an envelope the way json.Marshal sends it inside
// a request: no whitespace at all.
func compact(t testing.TB, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deepTree is a single path of the given number of levels.
func deepTree(levels int) []byte {
	var b strings.Builder
	b.WriteString(`{"kind":"tree","tree":{"roots":[`)
	for i := 0; i < levels; i++ {
		if i > 0 {
			b.WriteString(`,"children":[`)
		}
		b.WriteString(`{"c":1,"w":1`)
	}
	for i := 0; i < levels; i++ {
		b.WriteString(`}]`)
	}
	b.WriteString(`}}`)
	return []byte(b.String())
}

// offGrammar are inputs outside the canonical grammar: each must reach
// the reference and come back with its values or error string.
var offGrammar = []string{
	``,
	`   `,
	`null`,
	`[]`,
	`"chain"`,
	`42`,
	`{}`,
	"\xef\xbb\xbf" + `{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"kind":null}`,
	`{"kind":"chain"}`,
	`{"kind":"chain","chain":null}`,
	`{"kind":"chain","chain":42}`,
	`{"kind":"ring"}`,
	`{"kind":"Chain","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"Kind":"chain","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"KIND":"chain","CHAIN":{"NODES":[{"C":1,"W":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"C":1,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"W":1}]}}`,
	`{"k\u0069nd":"chain","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"kind":"ch\u0061in","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"kind":"chain","ch\u0061in":{"nodes":[{"c":1,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"\u0063":1,"w":1}]}}`,
	`{"\u212Aind":"chain","chain":{"nodes":[{"c":1,"w":1}]}}`,
	"{\"\u212aind\":\"chain\",\"chain\":{\"nodes\":[{\"c\":1,\"w\":1}]}}",
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1,"x":[1,{"y":null}]}]},"extra":true}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}],"name":"edge"}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]},"spider":{"legs":[]}}`,
	`{"kind":"spider","chain":{"nodes":[{"c":1,"w":1}]}}`,
	`{"kind":"chain","kind":"fork","fork":{"slaves":[{"c":1,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]},"chain":{"nodes":[{"c":2,"w":2}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"c":2,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":null,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":null}}`,
	`{"kind":"tree","tree":{"roots":[{"c":1,"w":1,"children":null}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1.0,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1e2,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1E2,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":9223372036854775807,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":9223372036854775808,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":-9223372036854775809,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1000000000000000000,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":01,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":-,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":"1","w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1},]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]},}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]}`,
	`{"kind":"spider","spider":{"legs":[{"nodes":[{"c":`,
	`{"kind":"chain" "chain":{"nodes":[{"c":1,"w":1}]}}`,
}

// onGrammar are canonical inputs beyond the writers' own output: the
// fast path must take them and agree with the reference.
var onGrammar = []string{
	`{"spider":{"legs":[{"nodes":[{"w":5,"c":2}]},{"nodes":[]},{}]},"kind":"spider"}`,
	` {"kind" : "fork" , "fork" : { "slaves" : [ { "w" : 4 , "c" : 1 } ] } } trailing`,
	"\t\r\n{\"kind\":\"chain\",\"chain\":{\"nodes\":[{\"c\":-0,\"w\":-7}]}}{",
	`{"kind":"chain","chain":{"nodes":[{"c":999999999999999999,"w":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1}]}}`,
	`{"kind":"chain","chain":{"nodes":[{}]}}`,
	`{"kind":"chain","chain":{"nodes":[]}}`,
	`{"kind":"chain","chain":{}}`,
	`{"kind":"spider","spider":{}}`,
	`{"kind":"spider","spider":{"legs":[]}}`,
	`{"kind":"fork","fork":{"slaves":[{"c":1,"w":-2}]}}`,
	`{"kind":"tree","tree":{}}`,
	`{"kind":"tree","tree":{"roots":[]}}`,
	`{"kind":"tree","tree":{"roots":[{"children":[],"w":2,"c":1},{"c":1,"w":0}]}}`,
	`{"kind":"chain","chain":{"nodes":[{"c":1,"w":1}]}}` + "\x00\xff",
}

func TestDecodeOffGrammarFallsBack(t *testing.T) {
	for _, in := range offGrammar {
		if _, ok := decodeCanonical([]byte(in)); ok {
			t.Errorf("canonical decoder accepted off-grammar input %q", in)
		}
		sameAsReference(t, []byte(in))
	}
}

func TestDecodeOnGrammarTakesFastPath(t *testing.T) {
	ins := onGrammar
	for _, env := range writerEnvelopes(t) {
		ins = append(ins, string(env), string(compact(t, env)))
	}
	ins = append(ins, string(deepTree(maxWireTreeDepth)))
	for _, in := range ins {
		if _, ok := decodeCanonical([]byte(in)); !ok {
			t.Errorf("canonical input %.200q fell back to the reference", in)
		}
		sameAsReference(t, []byte(in))
	}
}

// TestDecodeDeepTrees: past the canonical depth cap the reference
// decides, both where it accepts the tree and where its own nesting
// limit rejects it.
func TestDecodeDeepTrees(t *testing.T) {
	for _, levels := range []int{maxWireTreeDepth + 1, 4000, 10001} {
		in := deepTree(levels)
		if _, ok := decodeCanonical(in); ok {
			t.Errorf("%d-level tree took the canonical path", levels)
		}
		sameAsReference(t, in)
	}
	if _, err := Decode(deepTree(10001)); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Errorf("10001-level tree: error %v, want the reference's depth limit", err)
	}
}

// TestDecodeExactSlices: decoded platforms carry no append slack, and a
// spider's legs share one backing array without overlapping capacity.
func TestDecodeExactSlices(t *testing.T) {
	for _, env := range writerEnvelopes(t) {
		d, err := Decode(env)
		if err != nil {
			t.Fatal(err)
		}
		switch d.Kind {
		case "chain":
			if len(d.Chain.Nodes) != cap(d.Chain.Nodes) {
				t.Errorf("chain nodes len %d cap %d", len(d.Chain.Nodes), cap(d.Chain.Nodes))
			}
		case "fork":
			if len(d.Fork.Slaves) != cap(d.Fork.Slaves) {
				t.Errorf("fork slaves len %d cap %d", len(d.Fork.Slaves), cap(d.Fork.Slaves))
			}
		case "spider":
			legs := d.Spider.Legs
			if len(legs) != cap(legs) {
				t.Errorf("spider legs len %d cap %d", len(legs), cap(legs))
			}
			for i, leg := range legs {
				if len(leg.Nodes) != cap(leg.Nodes) {
					t.Errorf("leg %d len %d cap %d", i, len(leg.Nodes), cap(leg.Nodes))
				}
				if i > 0 {
					prev := legs[i-1].Nodes
					end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*unsafe.Sizeof(Node{})
					if end != uintptr(unsafe.Pointer(unsafe.SliceData(leg.Nodes))) {
						t.Errorf("leg %d does not follow leg %d in one backing array", i, i-1)
					}
				}
			}
		case "tree":
			var walk func(ns []TreeNode)
			walk = func(ns []TreeNode) {
				if len(ns) != cap(ns) {
					t.Errorf("tree siblings len %d cap %d", len(ns), cap(ns))
				}
				for _, n := range ns {
					walk(n.Children)
				}
			}
			walk(d.Tree.Roots)
		}
	}
}

// TestDecodeLeavesSiblingStackClear: a successful tree decode leaves the
// sibling stack empty and every slot of its capacity zeroed, which is
// why decodeCanonical clears the scratch only after a failed decode.
func TestDecodeLeavesSiblingStackClear(t *testing.T) {
	for _, env := range writerEnvelopes(t) {
		d := &wireDecoder{Scanner: jsonscan.Scanner{B: env}}
		if _, ok := d.envelope(); !ok {
			t.Fatalf("envelope %.80q left the canonical grammar", env)
		}
		if len(d.sibs) != 0 {
			t.Fatalf("sibling stack holds %d entries after a successful decode", len(d.sibs))
		}
		for i, n := range d.sibs[:cap(d.sibs)] {
			if n.Comm != 0 || n.Work != 0 || n.Children != nil {
				t.Fatalf("sibling slot %d not cleared: %+v", i, n)
			}
		}
	}
}

// FuzzDecode is the differential fuzz of the canonical decoder against
// the encoding/json reference on arbitrary bytes.
func FuzzDecode(f *testing.F) {
	// The small writer envelopes only: mutating and minimising the large
	// ones would spend the fuzz budget on a few inputs.
	for _, env := range writerEnvelopes(f)[:4] {
		f.Add(env)
		f.Add(compact(f, env))
		f.Add(append(append([]byte{}, env...), "trailing garbage {"...))
	}
	for _, in := range offGrammar {
		f.Add([]byte(in))
	}
	for _, in := range onGrammar {
		f.Add([]byte(in))
	}
	f.Add(deepTree(10001))
	f.Fuzz(func(t *testing.T, b []byte) {
		sameAsReference(t, b)
	})
}

// BenchmarkDecode compares the canonical decoder with the encoding/json
// reference on wide writer envelopes, the request-path shapes.
func BenchmarkDecode(b *testing.B) {
	g := MustGenerator(1, 1, 30, Uniform)
	var spider, fork bytes.Buffer
	if err := WriteSpider(&spider, g.Spider(1024, 3)); err != nil {
		b.Fatal(err)
	}
	if err := WriteFork(&fork, g.Fork(1024)); err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		env  []byte
	}{{"spider1024", spider.Bytes()}, {"fork1024", fork.Bytes()}} {
		for _, dec := range []struct {
			name string
			fn   func([]byte) (Decoded, error)
		}{{"canonical", Decode}, {"reference", decodeJSON}} {
			b.Run(in.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(in.env)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dec.fn(in.env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
