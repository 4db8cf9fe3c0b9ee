package service

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/jsonscan"
	"repro/internal/obs"
	"repro/internal/platform"
)

// This file is the /solve wire codec every hop uses: the client writes
// requests with AppendRequest and reads answers with DecodeResponse, the
// router finds the platform with RequestPlatform and forwards the body
// untouched, and the shard reads requests with DecodeRequest and writes
// answers with AppendResponse. encoding/json defines the wire format,
// but on a warm request its reflection and re-scans cost more than the
// solve: the client compacts the platform it already holds, the router
// and the shard each scan the whole body into a RawMessage, and the
// shard compacts the indented schedule only to indent it again.
//
// Each function has a canonical fast path in the style of
// platform.Decode and hands every other input to the encoding/json
// reference at the bottom of this file, which then decides: the same
// values, the same bytes and the same error strings. The canonical
// grammar is what the fleet itself writes: known keys, unescaped and at
// most once per object; strings of printable ASCII that HTML escaping
// leaves alone; integers of at most 18 digits; no null. Within it the
// two paths agree by construction; FuzzRequest and FuzzResponse check
// that they do everywhere.

// opOf returns the op named by b without allocating for the three
// known ops.
func opOf(b []byte) Op {
	for _, op := range [...]Op{OpMinMakespan, OpMaxTasks, OpScheduleWithin} {
		if string(op) == string(b) {
			return op
		}
	}
	return Op(b)
}

// internOf returns b as a string, without allocating when it is one of
// the known values.
func internOf(b []byte, known ...string) string {
	for _, k := range known {
		if k == string(b) {
			return k
		}
	}
	return string(b)
}

// phaseNames are the cost block's phase_ns keys.
var phaseNames = func() []string {
	var out []string
	for _, p := range obs.Phases() {
		out = append(out, p.String())
	}
	return out
}()

// requestKeys are the /solve request's keys in the Request field order.
var requestKeys = []string{"platform", "op", "n", "deadline", "include_schedule", "timeout_ms", "allow_degraded"}

// wireRequest is a request's wrapper as the canonical scan reads it,
// without allocating: the platform and the op are spans of the body.
type wireRequest struct {
	platform, op []byte
	n            int
	deadline     platform.Time
	sched        bool
	timeoutMs    int64
	degraded     int8 // allow_degraded: 0 absent, 1 false, 2 true
}

// scanRequest reads the canonical /solve wrapper at the start of b and
// returns the index just past it.
func scanRequest(b []byte, w *wireRequest) (int, bool) {
	s := &jsonscan.Scanner{B: b}
	ok := s.Object(requestKeys, func(k int) bool {
		switch k {
		case 0: // platform
			var ok bool
			w.platform, ok = s.Span()
			return ok
		case 1: // op
			var ok bool
			w.op, ok = s.Name()
			return ok
		case 2: // n
			return jsonscan.Int(s, &w.n)
		case 3: // deadline
			return jsonscan.Int(s, &w.deadline)
		case 4: // include_schedule
			return s.Bool(&w.sched)
		case 5: // timeout_ms
			return jsonscan.Int(s, &w.timeoutMs)
		default: // allow_degraded
			var allow bool
			ok := s.Bool(&allow)
			w.degraded = 1
			if allow {
				w.degraded = 2
			}
			return ok
		}
	})
	return s.I, ok
}

// DecodeRequest decodes a /solve request body exactly as
// json.NewDecoder(bytes.NewReader(b)).Decode does: the same accepted
// inputs, values and error strings, and bytes after the first JSON
// value are ignored. The platform is a span of b, not a copy.
func DecodeRequest(b []byte) (Request, error) {
	var w wireRequest
	if _, ok := scanRequest(b, &w); !ok {
		return decodeRequestJSON(bytes.NewReader(b))
	}
	req := Request{Platform: w.platform, Op: opOf(w.op), N: w.n, Deadline: w.deadline,
		IncludeSchedule: w.sched, TimeoutMs: w.timeoutMs}
	if w.degraded != 0 {
		allow := w.degraded == 2
		req.AllowDegraded = &allow
	}
	return req, nil
}

// RequestPlatform returns the platform envelope of a /solve request
// body as a span of it, or nil when json.Unmarshal rejects the body or
// finds no platform — what a router needs to place the request without
// decoding the rest, which it forwards untouched. A canonical body
// costs no allocation.
func RequestPlatform(body []byte) []byte {
	var w wireRequest
	if end, ok := scanRequest(body, &w); ok && jsonscan.OnlySpace(body[end:]) {
		return w.platform
	}
	return requestPlatformJSON(body)
}

// AppendRequest appends the bytes json.Marshal(r) writes to dst: the
// platform compacted, HTML characters escaped. The error is
// json.Marshal's.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if out, ok := appendRequest(dst, r); ok {
		return out, nil
	}
	return appendRequestJSON(dst, r)
}

func appendRequest(dst []byte, r *Request) ([]byte, bool) {
	if r.Platform == nil || !jsonscan.Plain(string(r.Op)) {
		return nil, false
	}
	b := append(dst, `{"platform":`...)
	lo := len(b)
	b, ok := jsonscan.AppendCompact(b, r.Platform)
	// Validating the compacted copy is cheaper than validating the
	// platform, which is mostly indentation; AppendCompact refuses the
	// inputs whose compaction would change their tokens.
	s := jsonscan.Scanner{B: b[lo:]}
	if !ok || !s.Value(0, true) || s.I != len(s.B) {
		return nil, false
	}
	b = append(b, `,"op":"`...)
	b = append(b, r.Op...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	if r.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, int64(r.Deadline), 10)
	}
	if r.IncludeSchedule {
		b = append(b, `,"include_schedule":true`...)
	}
	if r.TimeoutMs != 0 {
		b = append(b, `,"timeout_ms":`...)
		b = strconv.AppendInt(b, r.TimeoutMs, 10)
	}
	if r.AllowDegraded != nil {
		b = append(b, `,"allow_degraded":`...)
		b = strconv.AppendBool(b, *r.AllowDegraded)
	}
	return append(b, '}'), true
}

// AppendResponse appends the bytes a json.Encoder with
// SetIndent("", "  ") writes for r, trailing newline included, to dst.
// An already indented schedule document is nested one level deeper by
// indenting each of its lines, not compacted and indented again. The
// error is the encoder's.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if out, ok := appendResponse(dst, r); ok {
		return out, nil
	}
	return appendResponseJSON(dst, r)
}

func appendResponse(dst []byte, r *Response) ([]byte, bool) {
	m := &r.Meta
	if !jsonscan.Plain(string(r.Op)) || !jsonscan.Plain(r.Bound) || !jsonscan.Plain(m.PlatformHash) || !jsonscan.Plain(m.Cache) ||
		(len(r.Schedule) > 0 && !jsonscan.Indented(r.Schedule)) {
		return nil, false
	}
	if m.Cost != nil {
		for k := range m.Cost.PhaseNs {
			if !jsonscan.Plain(k) {
				return nil, false
			}
		}
	}
	b := append(dst, "{\n  \"op\": \""...)
	b = append(b, r.Op...)
	b = append(b, "\",\n  \"n\": "...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = appendField(b, ",\n  \"deadline\": ", int64(r.Deadline), true)
	b = appendField(b, ",\n  \"makespan\": ", int64(r.Makespan), true)
	b = appendField(b, ",\n  \"tasks\": ", int64(r.Tasks), false)
	if len(r.Schedule) > 0 {
		b = append(b, ",\n  \"schedule\": "...)
		b = jsonscan.AppendNested(b, r.Schedule)
	}
	if r.Degraded {
		b = append(b, ",\n  \"degraded\": true"...)
	}
	if r.Bound != "" {
		b = append(b, ",\n  \"bound\": \""...)
		b = append(b, r.Bound...)
		b = append(b, '"')
	}
	if len(r.Bracket) > 0 {
		b = append(b, ",\n  \"bracket\": ["...)
		for i, v := range r.Bracket {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, "\n  ]"...)
	}
	b = appendField(b, ",\n  \"retry_after_seconds\": ", r.RetryAfterSeconds, true)
	b = append(b, ",\n  \"meta\": {\n    \"platform_hash\": \""...)
	b = append(b, m.PlatformHash...)
	b = append(b, "\",\n    \"cache\": \""...)
	b = append(b, m.Cache...)
	b = append(b, "\",\n    \"coalesced\": "...)
	b = strconv.AppendBool(b, m.Coalesced)
	if m.Memo {
		b = append(b, ",\n    \"memo\": true"...)
	}
	b = appendField(b, ",\n    \"solve_ns\": ", m.SolveNs, false)
	if c := m.Cost; c != nil {
		b = appendField(b, ",\n    \"cost\": {\n      \"probes\": ", int64(c.Probes), false)
		b = appendField(b, ",\n      \"pack_probes\": ", int64(c.PackProbes), true)
		b = appendField(b, ",\n      \"offered\": ", c.Offered, true)
		b = appendField(b, ",\n      \"rewind_hits\": ", int64(c.RewindHits), true)
		b = appendField(b, ",\n      \"constructed\": ", c.Constructed, true)
		if len(c.PhaseNs) > 0 {
			b = appendPhases(append(b, ",\n      \"phase_ns\": {"...), c.PhaseNs)
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  }\n}\n"...), true
}

// appendField appends key and v, skipping a zero v when omitEmpty.
func appendField(b []byte, key string, v int64, omitEmpty bool) []byte {
	if v == 0 && omitEmpty {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendPhases appends the phase_ns members in key order, as
// encoding/json sorts map keys.
func appendPhases(b []byte, phases map[string]int64) []byte {
	keys := make([]string, 0, 8)
	for k := range phases {
		i := len(keys)
		keys = append(keys, k)
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        \""...)
		b = append(b, k...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, phases[k], 10)
	}
	return b
}

// responseSize is the buffer AppendResponse needs for r on the fast
// path: the fixed members plus the schedule with two more spaces per
// line, generously.
func responseSize(r *Response) int {
	n := 512 + 24*len(r.Bracket)
	if len(r.Schedule) > 0 {
		n += len(r.Schedule) + len(r.Schedule)/4
	}
	return n
}

var (
	responseKeys = []string{"op", "n", "deadline", "makespan", "tasks", "schedule", "degraded",
		"bound", "bracket", "retry_after_seconds", "meta"}
	metaKeys = []string{"platform_hash", "cache", "coalesced", "memo", "solve_ns", "cost"}
	costKeys = []string{"probes", "pack_probes", "offered", "rewind_hits", "constructed", "phase_ns"}
)

// DecodeResponse decodes a /solve response body into the value
// json.Unmarshal gives, with the same error. The schedule is copied
// out of b.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	s := jsonscan.Scanner{B: b}
	if scanResponse(&s, &r) && jsonscan.OnlySpace(b[s.I:]) {
		return r, nil
	}
	return decodeResponseJSON(b)
}

// scanResponse reads the canonical response grammar.
func scanResponse(s *jsonscan.Scanner, r *Response) bool {
	return s.Object(responseKeys, func(k int) bool {
		switch k {
		case 0: // op
			v, ok := s.Name()
			r.Op = opOf(v)
			return ok
		case 1: // n
			return jsonscan.Int(s, &r.N)
		case 2: // deadline
			return jsonscan.Int(s, &r.Deadline)
		case 3: // makespan
			return jsonscan.Int(s, &r.Makespan)
		case 4: // tasks
			return jsonscan.Int(s, &r.Tasks)
		case 5: // schedule
			doc, ok := s.Span()
			r.Schedule = append(json.RawMessage(nil), doc...)
			return ok
		case 6: // degraded
			return s.Bool(&r.Degraded)
		case 7: // bound
			v, ok := s.Name()
			r.Bound = internOf(v, BoundLower, BoundUpper, BoundBracket)
			return ok
		case 8: // bracket
			r.Bracket = []platform.Time{}
			return s.Array(func() bool {
				var v platform.Time
				ok := jsonscan.Int(s, &v)
				r.Bracket = append(r.Bracket, v)
				return ok
			})
		case 9: // retry_after_seconds
			return jsonscan.Int(s, &r.RetryAfterSeconds)
		default: // meta
			return scanMeta(s, &r.Meta)
		}
	})
}

func scanMeta(s *jsonscan.Scanner, m *Meta) bool {
	return s.Object(metaKeys, func(k int) bool {
		switch k {
		case 0: // platform_hash
			v, ok := s.Name()
			m.PlatformHash = string(v)
			return ok
		case 1: // cache
			v, ok := s.Name()
			m.Cache = internOf(v, "hit", "miss", "degraded")
			return ok
		case 2: // coalesced
			return s.Bool(&m.Coalesced)
		case 3: // memo
			return s.Bool(&m.Memo)
		case 4: // solve_ns
			return jsonscan.Int(s, &m.SolveNs)
		default: // cost
			m.Cost = new(Cost)
			return scanCost(s, m.Cost)
		}
	})
}

func scanCost(s *jsonscan.Scanner, c *Cost) bool {
	return s.Object(costKeys, func(k int) bool {
		switch k {
		case 0: // probes
			return jsonscan.Int(s, &c.Probes)
		case 1: // pack_probes
			return jsonscan.Int(s, &c.PackProbes)
		case 2: // offered
			return jsonscan.Int(s, &c.Offered)
		case 3: // rewind_hits
			return jsonscan.Int(s, &c.RewindHits)
		case 4: // constructed
			return jsonscan.Int(s, &c.Constructed)
		default: // phase_ns
			c.PhaseNs = map[string]int64{}
			return scanPhases(s, c.PhaseNs)
		}
	})
}

// scanPhases parses the phase_ns map; a repeated key overwrites, as in
// encoding/json.
func scanPhases(s *jsonscan.Scanner, m map[string]int64) bool {
	if !s.Eat('{') {
		return false
	}
	if s.Eat('}') {
		return true
	}
	for {
		raw, ok := s.Name()
		var v int64
		if !ok || !s.Eat(':') || !jsonscan.Int(s, &v) {
			return false
		}
		m[internOf(raw, phaseNames...)] = v
		if !s.Eat(',') {
			return s.Eat('}')
		}
	}
}

// The encoding/json references below define the wire format; the fast
// paths above hand them every input outside the canonical grammar.

func decodeRequestJSON(r io.Reader) (Request, error) {
	var req Request
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

func requestPlatformJSON(body []byte) []byte {
	var env struct {
		Platform json.RawMessage `json:"platform"`
	}
	if json.Unmarshal(body, &env) != nil {
		return nil
	}
	return env.Platform
}

func appendRequestJSON(dst []byte, r *Request) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func appendResponseJSON(dst []byte, r *Response) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

func decodeResponseJSON(b []byte) (Response, error) {
	var r Response
	err := json.Unmarshal(b, &r)
	return r, err
}
