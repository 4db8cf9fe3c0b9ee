// Package jsonscan is the one JSON scanner under the repository's wire
// codecs: platform.Decode and the /solve codec in internal/service.
//
// Each codec has a canonical fast path and an encoding/json reference
// that defines its format. The fast path reads only the grammar the
// repository itself writes — known keys, unescaped and at most once per
// object; strings of printable ASCII; integers of at most 18 digits; no
// null — and reports failure on anything else, so that the reference
// decides: the same values, the same bytes and the same error strings.
// The scanner therefore never reports a syntax error of its own. A
// false return only means "not canonical here".
package jsonscan

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// MaxDepth bounds the JSON nesting the fast paths descend before
// handing the input to the reference, whose own limit is 10 000 levels.
// A tree platform nests two levels per tree level, so a platform of up
// to 1099 tree levels takes the fast path, inside a /solve request or
// on its own.
const MaxDepth = 2200

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

// Scanner is a cursor over JSON bytes: B[I:] is still to be read.
type Scanner struct {
	B []byte
	I int
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func isDigit(c byte) bool { return c-'0' <= 9 }

// OnlySpace reports whether b holds nothing but JSON whitespace.
func OnlySpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) peek() byte {
	b, i := s.B, s.I
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || !isSpace(c) {
			s.I = i
			return c
		}
	}
	s.I = i
	return 0
}

// Eat consumes c, after whitespace, if it comes next.
func (s *Scanner) Eat(c byte) bool {
	if s.peek() == c {
		s.I++
		return true
	}
	return false
}

// lit consumes the literal x at the cursor, whitespace not skipped.
func (s *Scanner) lit(x string) bool {
	if len(s.B)-s.I >= len(x) && string(s.B[s.I:s.I+len(x)]) == x {
		s.I += len(x)
		return true
	}
	return false
}

// Name reads a string of printable ASCII without escapes, after
// whitespace, and returns its bytes: every key and string value the
// fast paths decode. Anything else, escapes and non-ASCII included, is
// the reference's to decode.
func (s *Scanner) Name() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, false
	}
	lo := s.I + 1
	for i := lo; i < len(s.B); i++ {
		switch c := s.B[i]; {
		case c == '"':
			s.I = i + 1
			return s.B[lo:i], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str skips the string starting at the cursor, validating its escapes
// and rejecting control bytes; with html it also rejects the bytes
// encoding/json's HTML escaping would rewrite.
func (s *Scanner) str(html bool) bool {
	b := s.B
	for i := s.I + 1; i < len(b); i++ {
		switch strClass[b[i]] {
		case 0:
		case strQuote:
			s.I = i + 1
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
func (s *Scanner) number() bool {
	b, i := s.B, s.I
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
	s.I = i
	return true
}

// Value skips one JSON value at nesting depth after whitespace,
// validating it as encoding/json's scanner does (html as for str).
func (s *Scanner) Value(depth int, html bool) bool {
	switch c := s.peek(); c {
	case '{', '[':
		if depth >= MaxDepth {
			return false
		}
		s.I++
		end := c + 2 // '}' and ']' follow '{' and '[' at distance 2
		if s.Eat(end) {
			return true
		}
		for {
			if c == '{' && (s.peek() != '"' || !s.str(html) || !s.Eat(':')) {
				return false
			}
			if !s.Value(depth+1, html) {
				return false
			}
			if !s.Eat(',') {
				return s.Eat(end)
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

// Span skips one value after whitespace and returns its bytes; null is
// left to the reference, which treats it differently per target type.
func (s *Scanner) Span() ([]byte, bool) {
	if s.peek() == 'n' {
		return nil, false
	}
	lo := s.I
	if !s.Value(0, false) {
		return nil, false
	}
	return s.B[lo:s.I], true
}

// integer reads a plain decimal integer of at most 18 digits, which
// fits an int64. Longer numbers, fractions and exponents are the
// reference's: the caller's next token check fails on them.
func (s *Scanner) integer() (int64, bool) {
	s.peek()
	b, i := s.B, s.I
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
	s.I = i
	return v, true
}

// Int reads an integer into dst, leaving values outside T's range to
// the reference.
func Int[T ~int | ~int64](s *Scanner, dst *T) bool {
	v, ok := s.integer()
	*dst = T(v)
	return ok && int64(*dst) == v
}

// Bool reads true or false into dst.
func (s *Scanner) Bool(dst *bool) bool {
	s.peek()
	*dst = s.lit("true")
	return *dst || s.lit("false")
}

// Key reads a string after whitespace that is one of keys, unescaped,
// and returns its index; for any other string it returns -1. Keys are
// short, so a byte loop beats a call to the runtime's memequal.
func (s *Scanner) Key(keys []string) int {
	if s.peek() != '"' {
		return -1
	}
	rest := s.B[s.I+1:]
	for k, key := range keys {
		if len(rest) <= len(key) || rest[len(key)] != '"' {
			continue
		}
		i := 0
		for i < len(key) && key[i] == rest[i] {
			i++
		}
		if i == len(key) {
			s.I += len(key) + 2
			return k
		}
	}
	return -1
}

// Object parses an object whose keys are all in keys (at most 32),
// each at most once; member consumes the value of keys[k] and reports
// whether it parsed.
func (s *Scanner) Object(keys []string, member func(k int) bool) bool {
	if !s.Eat('{') {
		return false
	}
	if s.Eat('}') {
		return true
	}
	var seen uint32
	for {
		k := s.Key(keys)
		if k < 0 || seen&(1<<k) != 0 || !s.Eat(':') || !member(k) {
			return false
		}
		seen |= 1 << k
		if !s.Eat(',') {
			return s.Eat('}')
		}
	}
}

// Array parses an array, elem consuming each element.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Eat('[') {
		return false
	}
	if s.Eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.Eat(',') {
			return s.Eat(']')
		}
	}
}

// Plain reports whether s encodes as itself between quotes: printable
// ASCII that neither JSON nor HTML escaping rewrites.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strClass[c] != 0 {
			return false
		}
	}
	return true
}

// AppendCompact appends src to dst without the whitespace outside its
// strings, as json.Compact does for valid JSON. It reports false for an
// unterminated string and for whitespace between two bytes that would
// join into one token without it ("1 2", "tru e"), so that the copy is
// valid JSON exactly when src is.
func AppendCompact(dst, src []byte) ([]byte, bool) {
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

// Indented reports whether doc is one JSON value exactly as
// encoding/json indents it with a two-space indent and no prefix,
// optionally followed by one newline — the form the schedule appenders
// write — holding no byte HTML escaping would rewrite. Compacting such
// a document and indenting it again one level deeper only adds two
// spaces after each inner newline.
func Indented(doc []byte) bool {
	if doc[len(doc)-1] == '\n' {
		doc = doc[:len(doc)-1]
	}
	s := Scanner{B: doc}
	return s.indentedValue(0) && s.I == len(doc)
}

// indentedValue checks one value at depth, no whitespace skipped.
func (s *Scanner) indentedValue(depth int) bool {
	if s.I >= len(s.B) {
		return false
	}
	switch c := s.B[s.I]; c {
	case '{', '[':
		if depth >= MaxDepth {
			return false
		}
		s.I++
		end := c + 2
		if s.I < len(s.B) && s.B[s.I] == end {
			s.I++
			return true
		}
		for {
			if !s.newline(depth+1) ||
				(c == '{' && (s.I >= len(s.B) || s.B[s.I] != '"' || !s.str(true) || !s.lit(": "))) ||
				!s.indentedValue(depth+1) {
				return false
			}
			if s.I < len(s.B) && s.B[s.I] == ',' {
				s.I++
				continue
			}
			if !s.newline(depth) || s.I >= len(s.B) || s.B[s.I] != end {
				return false
			}
			s.I++
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
func (s *Scanner) newline(depth int) bool {
	end := s.I + 1 + 2*depth
	if end > len(s.B) || s.B[s.I] != '\n' {
		return false
	}
	for _, c := range s.B[s.I+1 : end] {
		if c != ' ' {
			return false
		}
	}
	s.I = end
	return true
}

// AppendNested appends the indented document doc one level deeper,
// without its trailing newline.
func AppendNested(b, doc []byte) []byte {
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
