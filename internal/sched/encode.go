package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/platform"
)

// scheduleEnvelope is the on-disk JSON format for schedules, a tagged
// union mirroring the platform file format.
type scheduleEnvelope struct {
	Kind   string          `json:"kind"` // "chain" | "spider"
	Chain  json.RawMessage `json:"chain_schedule,omitempty"`
	Spider json.RawMessage `json:"spider_schedule,omitempty"`
}

// WriteChainSchedule encodes a chain schedule as a tagged JSON document.
func WriteChainSchedule(w io.Writer, s *ChainSchedule) error {
	return writeSchedule(w, AppendChainSchedule(nil, s))
}

// WriteSpiderSchedule encodes a spider schedule as a tagged JSON
// document.
func WriteSpiderSchedule(w io.Writer, s *SpiderSchedule) error {
	return writeSchedule(w, AppendSpiderSchedule(nil, s))
}

func writeSchedule(w io.Writer, doc []byte) error {
	if _, err := w.Write(doc); err != nil {
		return fmt.Errorf("sched: writing schedule file: %w", err)
	}
	return nil
}

// The appenders below write the schedule document without reflection,
// byte for byte as encoding/json writes the envelope with a two-space
// indent: keys in struct-field order, nil slices as null, empty ones as
// [], and a trailing newline. The schedule file format is defined by
// that encoding (ReadSchedule decodes it), so the appenders are pinned
// against it by the package's tests and FuzzScheduleEncode.

// AppendChainSchedule appends the tagged JSON document of a chain
// schedule to dst and returns the extended slice.
func AppendChainSchedule(dst []byte, s *ChainSchedule) []byte {
	if s == nil {
		return append(dst, "{\n  \"kind\": \"chain\",\n  \"chain_schedule\": null\n}\n"...)
	}
	size := 96 + nodesSize(len(s.Chain.Nodes))
	for i := range s.Tasks {
		size += taskSize(len(s.Tasks[i].Comms))
	}
	dst = grow(dst, size)
	dst = append(dst, "{\n  \"kind\": \"chain\",\n  \"chain_schedule\": {\n    \"chain\": {\n      \"nodes\": "...)
	dst = appendNodes(dst, s.Chain.Nodes, 3)
	dst = append(dst, "\n    },\n    \"tasks\": "...)
	switch {
	case s.Tasks == nil:
		dst = append(dst, "null"...)
	case len(s.Tasks) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i := range s.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n      {"...)
			dst = appendChainTask(dst, &s.Tasks[i], 3)
			dst = append(dst, "\n      }"...)
		}
		dst = append(dst, "\n    ]"...)
	}
	return append(dst, "\n  }\n}\n"...)
}

// AppendSpiderSchedule appends the tagged JSON document of a spider
// schedule, embedded platform included, to dst and returns the extended
// slice.
func AppendSpiderSchedule(dst []byte, s *SpiderSchedule) []byte {
	if s == nil {
		return append(dst, "{\n  \"kind\": \"spider\",\n  \"spider_schedule\": null\n}\n"...)
	}
	size := 96
	for _, leg := range s.Spider.Legs {
		size += 48 + nodesSize(len(leg.Nodes))
	}
	tasks := s.Tasks
	for i := range tasks {
		size += taskSize(len(tasks[i].Comms))
	}
	dst = grow(dst, size)
	dst = append(dst, "{\n  \"kind\": \"spider\",\n  \"spider_schedule\": {\n    \"spider\": {\n      \"legs\": "...)
	switch {
	case s.Spider.Legs == nil:
		dst = append(dst, "null"...)
	case len(s.Spider.Legs) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i, leg := range s.Spider.Legs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n        {\n          \"nodes\": "...)
			dst = appendNodes(dst, leg.Nodes, 5)
			dst = append(dst, "\n        }"...)
		}
		dst = append(dst, "\n      ]"...)
	}
	dst = append(dst, "\n    },\n    \"tasks\": "...)
	switch {
	case tasks == nil:
		dst = append(dst, "null"...)
	case len(tasks) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i := range tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n      {\n        \"leg\": "...)
			dst = strconv.AppendInt(dst, int64(tasks[i].Leg), 10)
			dst = append(dst, ',')
			dst = appendChainTask(dst, &tasks[i].ChainTask, 3)
			dst = append(dst, "\n      }"...)
		}
		dst = append(dst, "\n    ]"...)
	}
	return append(dst, "\n  }\n}\n"...)
}

// indent holds newline-prefixed indentation; indent[:1+2*d] starts a
// line at depth d. The schedule documents nest at most 7 deep.
const indent = "\n                  "

// appendNodes appends a node list whose key sits at depth d.
func appendNodes(dst []byte, nodes []platform.Node, d int) []byte {
	switch {
	case nodes == nil:
		return append(dst, "null"...)
	case len(nodes) == 0:
		return append(dst, "[]"...)
	}
	open, field, end := indent[:3+2*d], indent[:5+2*d], indent[:1+2*d]
	dst = append(dst, '[')
	for i, n := range nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, open...)
		dst = append(dst, '{')
		dst = append(dst, field...)
		dst = append(dst, `"c": `...)
		dst = strconv.AppendInt(dst, int64(n.Comm), 10)
		dst = append(dst, ',')
		dst = append(dst, field...)
		dst = append(dst, `"w": `...)
		dst = strconv.AppendInt(dst, int64(n.Work), 10)
		dst = append(dst, open...)
		dst = append(dst, '}')
	}
	dst = append(dst, end...)
	return append(dst, ']')
}

// appendChainTask appends the proc, start and comms members of a task
// object whose opening brace sits at depth d; the caller writes the
// braces (a spider task prefixes its leg member).
func appendChainTask(dst []byte, t *ChainTask, d int) []byte {
	field := indent[:3+2*d]
	dst = append(dst, field...)
	dst = append(dst, `"proc": `...)
	dst = strconv.AppendInt(dst, int64(t.Proc), 10)
	dst = append(dst, ',')
	dst = append(dst, field...)
	dst = append(dst, `"start": `...)
	dst = strconv.AppendInt(dst, int64(t.Start), 10)
	dst = append(dst, ',')
	dst = append(dst, field...)
	dst = append(dst, `"comms": `...)
	switch {
	case t.Comms == nil:
		return append(dst, "null"...)
	case len(t.Comms) == 0:
		return append(dst, "[]"...)
	}
	elem := indent[:5+2*d]
	dst = append(dst, '[')
	for i, c := range t.Comms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, elem...)
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	dst = append(dst, field...)
	return append(dst, ']')
}

// The size helpers estimate a document's length so an appender grows
// its buffer once; a short estimate costs one more growth, nothing else.

// grow returns dst with room for n more bytes, in one allocation when
// it has to move; slices.Grow takes two under the race detector.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	b := make([]byte, len(dst), len(dst)+n)
	copy(b, dst)
	return b
}

// nodesSize is the typical encoded size of n nodes at the deepest
// nesting the documents use.
func nodesSize(n int) int { return 80 * n }

// taskSize is the typical encoded size of one task with the given
// number of comms.
func taskSize(comms int) int { return 96 + 24*comms }

// DecodedSchedule is the result of reading a schedule file: exactly one
// pointer is non-nil, matching Kind.
type DecodedSchedule struct {
	Kind   string
	Chain  *ChainSchedule
	Spider *SpiderSchedule
}

// ReadSchedule decodes a tagged schedule document. The embedded
// platform is decoded along with the schedule; Verify is NOT called so
// that verification tools can report violations themselves.
func ReadSchedule(r io.Reader) (DecodedSchedule, error) {
	var env scheduleEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return DecodedSchedule{}, fmt.Errorf("sched: decoding schedule file: %w", err)
	}
	switch env.Kind {
	case "chain":
		var s ChainSchedule
		if err := json.Unmarshal(env.Chain, &s); err != nil {
			return DecodedSchedule{}, fmt.Errorf("sched: decoding chain schedule body: %w", err)
		}
		return DecodedSchedule{Kind: "chain", Chain: &s}, nil
	case "spider":
		var s SpiderSchedule
		if err := json.Unmarshal(env.Spider, &s); err != nil {
			return DecodedSchedule{}, fmt.Errorf("sched: decoding spider schedule body: %w", err)
		}
		return DecodedSchedule{Kind: "spider", Spider: &s}, nil
	default:
		return DecodedSchedule{}, fmt.Errorf("sched: unknown schedule kind %q", env.Kind)
	}
}
