package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// fileEnvelope is the on-disk JSON format shared by the cmd/ tools: a
// tagged union so one file unambiguously carries one platform kind.
type fileEnvelope struct {
	Kind   string          `json:"kind"` // "chain" | "spider" | "fork" | "tree"
	Chain  json.RawMessage `json:"chain,omitempty"`
	Spider json.RawMessage `json:"spider,omitempty"`
	Fork   json.RawMessage `json:"fork,omitempty"`
	Tree   json.RawMessage `json:"tree,omitempty"`
}

// WriteChain encodes a chain to w as a tagged JSON document.
func WriteChain(w io.Writer, ch Chain) error {
	raw, err := json.Marshal(ch)
	if err != nil {
		return fmt.Errorf("platform: encoding chain: %w", err)
	}
	return writeEnvelope(w, fileEnvelope{Kind: "chain", Chain: raw})
}

// WriteSpider encodes a spider to w as a tagged JSON document.
func WriteSpider(w io.Writer, sp Spider) error {
	raw, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("platform: encoding spider: %w", err)
	}
	return writeEnvelope(w, fileEnvelope{Kind: "spider", Spider: raw})
}

// WriteFork encodes a fork to w as a tagged JSON document.
func WriteFork(w io.Writer, f Fork) error {
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("platform: encoding fork: %w", err)
	}
	return writeEnvelope(w, fileEnvelope{Kind: "fork", Fork: raw})
}

// WriteTree encodes a tree to w as a tagged JSON document.
func WriteTree(w io.Writer, t Tree) error {
	raw, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("platform: encoding tree: %w", err)
	}
	return writeEnvelope(w, fileEnvelope{Kind: "tree", Tree: raw})
}

func writeEnvelope(w io.Writer, env fileEnvelope) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("platform: writing platform file: %w", err)
	}
	return nil
}

// Decoded is the result of reading a platform file: exactly one of the
// pointers is non-nil, matching Kind.
type Decoded struct {
	Kind   string
	Chain  *Chain
	Spider *Spider
	Fork   *Fork
	Tree   *Tree
}

// Read decodes a tagged platform document and validates it: it reads r
// to the end and runs Decode on the bytes. The copy goes through
// io.Copy, so an in-memory reader (bytes.Reader, strings.Reader) hands
// over its bytes in one sized write instead of a doubling read loop.
func Read(r io.Reader) (Decoded, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return Decoded{}, fmt.Errorf("platform: decoding platform file: %w", err)
	}
	return Decode(buf.Bytes())
}

// decodeJSON is the reference semantics of the envelope: encoding/json
// decodes the first JSON value of b (bytes after it are ignored), then
// the body the kind names, then the platform validates. Decode's
// canonical fast path reproduces it exactly on the grammar it accepts
// and hands it everything else.
func decodeJSON(b []byte) (Decoded, error) {
	var env fileEnvelope
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return Decoded{}, fmt.Errorf("platform: decoding platform file: %w", err)
	}
	switch env.Kind {
	case "chain":
		var ch Chain
		if err := json.Unmarshal(env.Chain, &ch); err != nil {
			return Decoded{}, fmt.Errorf("platform: decoding chain body: %w", err)
		}
		if err := ch.Validate(); err != nil {
			return Decoded{}, err
		}
		return Decoded{Kind: "chain", Chain: &ch}, nil
	case "spider":
		var sp Spider
		if err := json.Unmarshal(env.Spider, &sp); err != nil {
			return Decoded{}, fmt.Errorf("platform: decoding spider body: %w", err)
		}
		if err := sp.Validate(); err != nil {
			return Decoded{}, err
		}
		return Decoded{Kind: "spider", Spider: &sp}, nil
	case "fork":
		var f Fork
		if err := json.Unmarshal(env.Fork, &f); err != nil {
			return Decoded{}, fmt.Errorf("platform: decoding fork body: %w", err)
		}
		if err := f.Validate(); err != nil {
			return Decoded{}, err
		}
		return Decoded{Kind: "fork", Fork: &f}, nil
	case "tree":
		var t Tree
		if err := json.Unmarshal(env.Tree, &t); err != nil {
			return Decoded{}, fmt.Errorf("platform: decoding tree body: %w", err)
		}
		if err := t.Validate(); err != nil {
			return Decoded{}, err
		}
		return Decoded{Kind: "tree", Tree: &t}, nil
	default:
		return Decoded{}, fmt.Errorf("platform: unknown platform kind %q", env.Kind)
	}
}
