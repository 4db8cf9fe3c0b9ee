package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"slices"
	"strconv"

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

// maxScanDepth bounds the nesting the fast paths descend before handing
// the input to the reference (whose own limit is 10 000 levels); a tree
// platform nests two levels per tree level.
const maxScanDepth = 2200

// strClass sorts string bytes for the scanner: 0 needs no attention,
// strQuote ends the string, strEscape starts an escape, strCtl is
// invalid JSON and strHTML is rewritten by encoding/json's HTML
// escaping (0xE2 leads U+2028 and U+2029).
var strClass = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = strCtl
	}
	t['"'], t['\\'] = strQuote, strEscape
	t['<'], t['>'], t['&'], t[0xE2] = strHTML, strHTML, strHTML, strHTML
	return t
}()

const (
	strQuote = 1 + iota
	strEscape
	strCtl
	strHTML
)

// jscan is the fast paths' cursor over JSON bytes.
type jscan struct {
	b []byte
	i int
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func isDigit(c byte) bool { return c-'0' <= 9 }

// onlySpace reports whether b holds nothing but JSON whitespace.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *jscan) peek() byte {
	if s.i < len(s.b) && s.b[s.i] > ' ' {
		return s.b[s.i]
	}
	return s.skip()
}

// skip is peek's loop over whitespace.
func (s *jscan) skip() byte {
	b, i := s.b, s.i
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	s.i = i
	if i < len(b) {
		return b[i]
	}
	return 0
}

// eat consumes c, after whitespace, if it comes next.
func (s *jscan) eat(c byte) bool {
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

// lit consumes the literal x at the cursor, whitespace not skipped.
func (s *jscan) lit(x string) bool {
	if len(s.b)-s.i >= len(x) && string(s.b[s.i:s.i+len(x)]) == x {
		s.i += len(x)
		return true
	}
	return false
}

// name reads a string of printable ASCII without escapes, after
// whitespace, and returns its bytes: every key and string value the
// fast paths decode. Anything else, escapes and non-ASCII included, is
// the reference's to decode.
func (s *jscan) name() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, false
	}
	lo := s.i + 1
	for i := lo; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[lo:i], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str skips the string starting at the cursor, validating its escapes
// and rejecting control bytes; with html it also rejects the bytes
// encoding/json's HTML escaping would rewrite.
func (s *jscan) str(html bool) bool {
	b := s.b
	for i := s.i + 1; i < len(b); i++ {
		switch strClass[b[i]] {
		case 0:
		case strQuote:
			s.i = i + 1
			return true
		case strEscape:
			if i++; i >= len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return false
				}
				for _, h := range b[i+1 : i+5] {
					if !isDigit(h) && (h|0x20 < 'a' || h|0x20 > 'f') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		case strCtl:
			return false
		case strHTML:
			if html {
				return false
			}
		}
	}
	return false
}

// number skips a JSON number at the cursor.
func (s *jscan) number() bool {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	s.i = i
	return true
}

// value skips one JSON value after whitespace, validating it as
// encoding/json's scanner does (html as for str).
func (s *jscan) value(depth int, html bool) bool {
	switch c := s.peek(); c {
	case '{', '[':
		if depth >= maxScanDepth {
			return false
		}
		s.i++
		end := c + 2 // '}' and ']' follow '{' and '[' at distance 2
		if s.eat(end) {
			return true
		}
		for {
			if c == '{' && (s.peek() != '"' || !s.str(html) || !s.eat(':')) {
				return false
			}
			if !s.value(depth+1, html) {
				return false
			}
			if !s.eat(',') {
				return s.eat(end)
			}
		}
	case '"':
		return s.str(html)
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	}
	return s.number()
}

// span skips one value after whitespace and returns its bytes; null is
// left to the reference, which treats it differently per target type.
func (s *jscan) span() ([]byte, bool) {
	if s.peek() == 'n' {
		return nil, false
	}
	lo := s.i
	if !s.value(0, false) {
		return nil, false
	}
	return s.b[lo:s.i], true
}

// integer reads a plain decimal integer of at most 18 digits, which
// fits an int64. Longer numbers, fractions and exponents are the
// reference's: the caller's next token check fails on them.
func (s *jscan) integer() (int64, bool) {
	s.peek()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && isDigit(b[i]); i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	s.i = i
	return v, true
}

// intInto reads an integer into an int, leaving values outside the
// platform's int range to the reference.
func (s *jscan) intInto(dst *int) bool {
	v, ok := s.integer()
	*dst = int(v)
	return ok && int64(*dst) == v
}

func (s *jscan) int64Into(dst *int64) bool {
	v, ok := s.integer()
	*dst = v
	return ok
}

func (s *jscan) timeInto(dst *platform.Time) bool {
	v, ok := s.integer()
	*dst = platform.Time(v)
	return ok
}

func (s *jscan) boolInto(dst *bool) bool {
	s.peek()
	*dst = s.lit("true")
	return *dst || s.lit("false")
}

// object parses an object whose keys are all in keys, each at most
// once; member consumes the value of keys[k].
func (s *jscan) object(keys []string, member func(k int) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen uint32
	for {
		raw, ok := s.name()
		if !ok || !s.eat(':') {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(raw) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !member(k) {
			return false
		}
		seen |= 1 << k
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

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

// plain reports whether s encodes as itself between quotes: printable
// ASCII that neither JSON nor HTML escaping rewrites.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strClass[c] != 0 {
			return false
		}
	}
	return true
}

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
	s := jscan{b: b}
	ok := s.object(requestKeys, func(k int) bool {
		switch k {
		case 0: // platform
			var ok bool
			w.platform, ok = s.span()
			return ok
		case 1: // op
			var ok bool
			w.op, ok = s.name()
			return ok
		case 2: // n
			return s.intInto(&w.n)
		case 3: // deadline
			return s.timeInto(&w.deadline)
		case 4: // include_schedule
			return s.boolInto(&w.sched)
		case 5: // timeout_ms
			return s.int64Into(&w.timeoutMs)
		default: // allow_degraded
			var allow bool
			ok := s.boolInto(&allow)
			w.degraded = 1
			if allow {
				w.degraded = 2
			}
			return ok
		}
	})
	return s.i, ok
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
	if end, ok := scanRequest(body, &w); ok && onlySpace(body[end:]) {
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
	if r.Platform == nil || !plain(string(r.Op)) {
		return nil, false
	}
	b := append(dst, `{"platform":`...)
	lo := len(b)
	b, ok := appendCompact(b, r.Platform)
	// Validating the compacted copy is cheaper than validating the
	// platform, which is mostly indentation; appendCompact refuses the
	// inputs whose compaction would change their tokens.
	s := jscan{b: b[lo:]}
	if !ok || !s.value(0, true) || s.i != len(s.b) {
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

// appendCompact appends src to dst without the whitespace outside its
// strings, as json.Compact does for valid JSON. It reports false for an
// unterminated string and for whitespace between two bytes that would
// join into one token without it ("1 2", "tru e"), so that the copy is
// valid JSON exactly when src is.
func appendCompact(dst, src []byte) ([]byte, bool) {
	dst = slices.Grow(dst, len(src))
	out := dst[len(dst) : len(dst)+len(src)]
	w, gap := 0, false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c <= ' ' && isSpace(c) {
			// Indentation runs are long: skip them eight spaces at a time.
			for i+8 < len(src) && binary.LittleEndian.Uint64(src[i+1:]) == eightSpaces {
				i += 8
			}
			gap = w > 0
			continue
		}
		if gap && !delim(c) && !delim(out[w-1]) {
			return dst, false
		}
		gap = false
		out[w] = c
		w++
		if c != '"' {
			continue
		}
		for i++; ; i++ {
			if i >= len(src) {
				return dst, false
			}
			c = src[i]
			out[w] = c
			w++
			if c == '"' {
				break
			}
			if c == '\\' && i+1 < len(src) {
				i++
				out[w] = src[i]
				w++
			}
		}
	}
	return dst[:len(dst)+w], true
}

const eightSpaces = 0x2020202020202020

// delim reports whether c ends the token before it: a structural
// character or a quote.
func delim(c byte) bool {
	switch c {
	case '{', '}', '[', ']', ',', ':', '"':
		return true
	}
	return false
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
	if !plain(string(r.Op)) || !plain(r.Bound) || !plain(m.PlatformHash) || !plain(m.Cache) ||
		(len(r.Schedule) > 0 && !indented(r.Schedule)) {
		return nil, false
	}
	if m.Cost != nil {
		for k := range m.Cost.PhaseNs {
			if !plain(k) {
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
		b = appendNested(b, r.Schedule)
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

// indented reports whether doc is one JSON value exactly as
// encoding/json indents it with a two-space indent and no prefix,
// optionally followed by one newline — the form the schedule appenders
// write — holding no byte HTML escaping would rewrite. Compacting such
// a document and indenting it again one level deeper only adds two
// spaces after each inner newline.
func indented(doc []byte) bool {
	if doc[len(doc)-1] == '\n' {
		doc = doc[:len(doc)-1]
	}
	s := jscan{b: doc}
	return s.indentedValue(0) && s.i == len(doc)
}

// indentedValue checks one value at depth, no whitespace skipped.
func (s *jscan) indentedValue(depth int) bool {
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; c {
	case '{', '[':
		if depth >= maxScanDepth {
			return false
		}
		s.i++
		end := c + 2
		if s.i < len(s.b) && s.b[s.i] == end {
			s.i++
			return true
		}
		for {
			if !s.newline(depth+1) ||
				(c == '{' && (s.i >= len(s.b) || s.b[s.i] != '"' || !s.str(true) || !s.lit(": "))) ||
				!s.indentedValue(depth+1) {
				return false
			}
			if s.i < len(s.b) && s.b[s.i] == ',' {
				s.i++
				continue
			}
			if !s.newline(depth) || s.i >= len(s.b) || s.b[s.i] != end {
				return false
			}
			s.i++
			return true
		}
	case '"':
		return s.str(true)
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	}
	return s.number()
}

// newline consumes a newline and the indent of depth.
func (s *jscan) newline(depth int) bool {
	end := s.i + 1 + 2*depth
	if end > len(s.b) || s.b[s.i] != '\n' {
		return false
	}
	for _, c := range s.b[s.i+1 : end] {
		if c != ' ' {
			return false
		}
	}
	s.i = end
	return true
}

// appendNested appends the indented document doc one level deeper,
// without its trailing newline.
func appendNested(b, doc []byte) []byte {
	if doc[len(doc)-1] == '\n' {
		doc = doc[:len(doc)-1]
	}
	for {
		j := bytes.IndexByte(doc, '\n')
		if j < 0 {
			return append(b, doc...)
		}
		b = append(append(b, doc[:j+1]...), ' ', ' ')
		doc = doc[j+1:]
	}
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
	s := jscan{b: b}
	if s.response(&r) && onlySpace(b[s.i:]) {
		return r, nil
	}
	return decodeResponseJSON(b)
}

func (s *jscan) response(r *Response) bool {
	return s.object(responseKeys, func(k int) bool {
		switch k {
		case 0: // op
			v, ok := s.name()
			r.Op = opOf(v)
			return ok
		case 1: // n
			return s.intInto(&r.N)
		case 2: // deadline
			return s.timeInto(&r.Deadline)
		case 3: // makespan
			return s.timeInto(&r.Makespan)
		case 4: // tasks
			return s.intInto(&r.Tasks)
		case 5: // schedule
			doc, ok := s.span()
			r.Schedule = append(json.RawMessage(nil), doc...)
			return ok
		case 6: // degraded
			return s.boolInto(&r.Degraded)
		case 7: // bound
			v, ok := s.name()
			r.Bound = internOf(v, BoundLower, BoundUpper, BoundBracket)
			return ok
		case 8: // bracket
			r.Bracket = []platform.Time{}
			return s.array(func() bool {
				var v platform.Time
				ok := s.timeInto(&v)
				r.Bracket = append(r.Bracket, v)
				return ok
			})
		case 9: // retry_after_seconds
			return s.int64Into(&r.RetryAfterSeconds)
		default: // meta
			return s.meta(&r.Meta)
		}
	})
}

func (s *jscan) meta(m *Meta) bool {
	return s.object(metaKeys, func(k int) bool {
		switch k {
		case 0: // platform_hash
			v, ok := s.name()
			m.PlatformHash = string(v)
			return ok
		case 1: // cache
			v, ok := s.name()
			m.Cache = internOf(v, "hit", "miss", "degraded")
			return ok
		case 2: // coalesced
			return s.boolInto(&m.Coalesced)
		case 3: // memo
			return s.boolInto(&m.Memo)
		case 4: // solve_ns
			return s.int64Into(&m.SolveNs)
		default: // cost
			m.Cost = new(Cost)
			return s.cost(m.Cost)
		}
	})
}

func (s *jscan) cost(c *Cost) bool {
	return s.object(costKeys, func(k int) bool {
		switch k {
		case 0: // probes
			return s.intInto(&c.Probes)
		case 1: // pack_probes
			return s.intInto(&c.PackProbes)
		case 2: // offered
			return s.int64Into(&c.Offered)
		case 3: // rewind_hits
			return s.intInto(&c.RewindHits)
		case 4: // constructed
			return s.int64Into(&c.Constructed)
		default: // phase_ns
			c.PhaseNs = map[string]int64{}
			return s.phases(c.PhaseNs)
		}
	})
}

// phases parses the phase_ns map; a repeated key overwrites, as in
// encoding/json.
func (s *jscan) phases(m map[string]int64) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		raw, ok := s.name()
		var v int64
		if !ok || !s.eat(':') || !s.int64Into(&v) {
			return false
		}
		m[internOf(raw, phaseNames...)] = v
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// array parses an array, elem consuming each element.
func (s *jscan) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
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
