package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jsonscan"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
)

// The encoding/json calls below define the /solve wire format: every
// codec function must give exactly their values, bytes and errors.

func refDecodeRequest(b []byte) (Request, error) {
	var r Request
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&r)
	return r, err
}

func refRequestPlatform(b []byte) []byte {
	var env struct {
		Platform json.RawMessage `json:"platform"`
	}
	if json.Unmarshal(b, &env) != nil {
		return nil
	}
	return env.Platform
}

func refAppendResponse(r *Response) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

func refDecodeResponse(b []byte) (Response, error) {
	var r Response
	err := json.Unmarshal(b, &r)
	return r, err
}

// sameErr reports whether two errors are both nil or carry one text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkRequest compares every request-side codec function on b with
// the reference: the shard's decode (also through a size limit cutting
// the body), the router's platform lookup, and re-encoding the decoded
// request as the client does.
func checkRequest(t *testing.T, b []byte) {
	t.Helper()
	got, err := DecodeRequest(b)
	want, wantErr := refDecodeRequest(b)
	if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRequest(%q) = %+v, %v; reference %+v, %v", b, got, err, want, wantErr)
	}
	if p, ref := RequestPlatform(b), refRequestPlatform(b); !bytes.Equal(p, ref) {
		t.Fatalf("RequestPlatform(%q) = %q; reference %q", b, p, ref)
	}
	limit := int64(len(b) / 2)
	body := func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(b)), limit) }
	got, err = decodeBody(readBody(body(), int64(len(b)), limit))
	want, wantErr = decodeRequestJSON(body())
	if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeBody(%q, limit %d) = %+v, %v; reference %+v, %v", b, limit, got, err, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	out, err := AppendRequest([]byte("x"), &want)
	ref, refErr := json.Marshal(&want)
	if !sameErr(err, refErr) || (err == nil && !bytes.Equal(out, append([]byte("x"), ref...))) {
		t.Fatalf("AppendRequest(%+v) = %q, %v; reference %q, %v", want, out, err, ref, refErr)
	}
}

// checkResponse compares AppendResponse with the indenting encoder on
// r, and DecodeResponse with json.Unmarshal on what it wrote.
func checkResponse(t *testing.T, r *Response) {
	t.Helper()
	got, err := AppendResponse([]byte("x"), r)
	want, wantErr := refAppendResponse(r)
	if !sameErr(err, wantErr) || (err == nil && !bytes.Equal(got, append([]byte("x"), want...))) {
		t.Fatalf("AppendResponse(%+v) = %q, %v; reference %q, %v", r, got, err, want, wantErr)
	}
	if err == nil {
		checkDecodeResponse(t, want)
	}
}

func checkDecodeResponse(t *testing.T, b []byte) {
	t.Helper()
	got, err := DecodeResponse(b)
	want, wantErr := refDecodeResponse(b)
	if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResponse(%q) = %+v, %v; reference %+v, %v", b, got, err, want, wantErr)
	}
}

// canonicalRequests returns requests of every kind with every wrapper
// field set, as the client writes them.
func canonicalRequests(t testing.TB) [][]byte {
	t.Helper()
	tree := platform.Tree{Roots: []platform.TreeNode{{Comm: 2, Work: 5, Children: []platform.TreeNode{{Comm: 3, Work: 3}}}, {Comm: 4, Work: 1}}}
	var reqs []*Request
	for _, mk := range []func() (*Request, error){
		func() (*Request, error) { return NewRequest(platform.NewChain(2, 5, 3, 3), OpMinMakespan, 5, 0) },
		func() (*Request, error) { return NewRequest(testSpider(), OpMaxTasks, 9, 20) },
		func() (*Request, error) { return NewRequest(platform.NewFork(2, 5, 1, 4), OpScheduleWithin, 4, 30) },
		func() (*Request, error) { return NewRequest(tree, OpMinMakespan, 3, 0) },
	} {
		r, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	allow, deny := true, false
	reqs[0].IncludeSchedule, reqs[0].TimeoutMs = true, 250
	reqs[1].AllowDegraded = &allow
	reqs[2].AllowDegraded, reqs[2].IncludeSchedule = &deny, true
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// offGrammarRequests are bodies outside the canonical grammar: each must
// take the reference path and get its value or error.
var offGrammarRequests = []string{
	``, ` `, `null`, `{}`, `[]`, `"x"`, `{`, `{"platform":`, `{"platform":{}`,
	`{"Platform":{"kind":"chain"},"op":"max_tasks"}`,
	`{"platform":null,"op":"min_makespan","n":1}`,
	`{"platform":{},"platform":[1],"n":2}`,
	`{"platform":{},"n":1.5}`, `{"platform":{},"n":"5"}`, `{"platform":{},"n":1e3}`,
	`{"platform":{},"n":1234567890123456789012}`, `{"platform":{},"n":-0}`, `{"platform":{},"n":007}`,
	`{"platform":{},"op":"min_makespan"}`, `{"platform":{},"op":"é"}`, `{"platform":{},"op":null}`,
	`{"platform":{},"include_schedule":null}`, `{"platform":{},"allow_degraded":null}`,
	`{"platform":{},"allow_degraded":1}`, `{"platform":{},"timeout_ms":true}`,
	`{"platform":{},"extra":{"a":[1,2,{"b":null}]}}`, `{"platform":{}}`,
	`{"platform":{"a":"\x01"}}`, `{"platform":{"a":"\u12"}}`, `{"platform":{"a":01}}`,
	`{"platform":{"a":1.}}`, `{"platform":{"a":-}}`, `{"platform":{"a":tru}}`,
	`{"platform":{"a":"<&>"},"op":"a<b"}`, `{"platform":{"a":" "}}`, "{\"platform\":{\"a\":\"\xe2\x80\xa8\"}}",
	`{"platform":{},"op":"min_makespan"} trailing`, `{"platform":{}}{"platform":[]}`,
	"\t{\"platform\" : [ 1 , 2 ] ,\n\"n\" : 3 }\n",
}

func TestRequestCodecMatchesReference(t *testing.T) {
	for _, b := range canonicalRequests(t) {
		var w wireRequest
		if _, ok := scanRequest(b, &w); !ok {
			t.Errorf("canonical request took the reference path: %s", b)
		}
		req, err := DecodeRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := appendRequest(nil, &req); !ok {
			t.Errorf("canonical request re-encoded through the reference: %s", b)
		}
		checkRequest(t, b)
		var ind bytes.Buffer
		if err := json.Indent(&ind, b, "", "  "); err != nil {
			t.Fatal(err)
		}
		checkRequest(t, ind.Bytes())
		checkRequest(t, append(bytes.Clone(b), " trailing {"...))
		for cut := 0; cut < len(b); cut += 7 {
			checkRequest(t, b[:cut])
		}
	}
	for _, in := range offGrammarRequests {
		checkRequest(t, []byte(in))
	}
}

// TestRequestPlatformRejectsTrailingData pins the router's reading: a
// body json.Unmarshal rejects names no platform, even when the shard's
// decoder would accept its first value.
func TestRequestPlatformRejectsTrailingData(t *testing.T) {
	b := canonicalRequests(t)[0]
	if RequestPlatform(b) == nil {
		t.Fatal("no platform in a canonical request")
	}
	bad := append(bytes.Clone(b), `{"x":1}`...)
	if p := RequestPlatform(bad); p != nil {
		t.Fatalf("trailing data: platform %q, want none", p)
	}
	if _, err := DecodeRequest(bad); err != nil {
		t.Fatalf("the shard's decoder ignores trailing data, got %v", err)
	}
}

// scheduleDocs are real schedule documents as the service's appenders
// write them, built once.
var scheduleDocs = sync.OnceValue(func() [][]byte {
	var docs [][]byte
	for n := 1; n <= 4; n++ {
		cs, err := core.Schedule(platform.NewChain(2, 5, 3, 3), n)
		if err != nil {
			panic(err)
		}
		_, ss, err := spider.MinMakespan(testSpider(), 2*n)
		if err != nil {
			panic(err)
		}
		docs = append(docs, sched.AppendChainSchedule(nil, cs), sched.AppendSpiderSchedule(nil, ss))
	}
	return docs
})

var oddStrings = []string{"", "hit", "min_makespan", "a<b", "x&y", "tab\there", `q"uote`, `back\slash`,
	"é", " ", "\xff", "bound", "\x00", "~\x7f"}

// randomResponse builds a response of every shape: bounds, brackets,
// costs and phase maps present or not, odd strings, and a schedule that
// is a real document, a compacted or re-indented one, or the raw fuzz
// bytes.
func randomResponse(rng *rand.Rand, raw []byte) *Response {
	pick := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Int63n(100)
		case 2:
			return rng.Int63()
		}
		return rng.Int63n(1000)
	}
	r := &Response{Op: Op(pick()), N: int(num()), Deadline: platform.Time(num()), Makespan: platform.Time(num()),
		Tasks: int(num()), Degraded: rng.Intn(2) == 0, Bound: pick(), RetryAfterSeconds: num(),
		Meta: Meta{PlatformHash: pick(), Cache: pick(), Coalesced: rng.Intn(2) == 0, Memo: rng.Intn(2) == 0, SolveNs: num()}}
	if rng.Intn(2) == 0 {
		r.Op, r.Bound, r.Meta.Cache = OpMinMakespan, "", "hit"
	}
	switch rng.Intn(3) {
	case 0:
		r.Bracket = []platform.Time{}
	case 1:
		for i := rng.Intn(4); i > 0; i-- {
			r.Bracket = append(r.Bracket, platform.Time(num()))
		}
	}
	if rng.Intn(3) > 0 {
		c := &Cost{Probes: int(num()), PackProbes: int(num()), Offered: num(), RewindHits: int(num()), Constructed: num()}
		switch rng.Intn(3) {
		case 0:
			c.PhaseNs = map[string]int64{}
		case 1:
			c.PhaseNs = map[string]int64{}
			for i := rng.Intn(7); i > 0; i-- {
				k := phaseNames[rng.Intn(len(phaseNames))]
				if rng.Intn(4) == 0 {
					k = pick()
				}
				c.PhaseNs[k] = num()
			}
		}
		r.Meta.Cost = c
	}
	docs := scheduleDocs()
	doc := docs[rng.Intn(len(docs))]
	switch rng.Intn(6) {
	case 0:
	case 1:
		r.Schedule = raw
	case 2:
		var buf bytes.Buffer
		_ = json.Compact(&buf, doc)
		r.Schedule = buf.Bytes()
	case 3:
		var buf bytes.Buffer
		_ = json.Indent(&buf, doc, "", "\t")
		r.Schedule = buf.Bytes()
	default:
		r.Schedule = doc
	}
	return r
}

func TestResponseCodecMatchesReference(t *testing.T) {
	for name, r := range goldenResponses(t) {
		if _, ok := appendResponse(nil, r); !ok {
			t.Errorf("%s: canonical response took the reference path", name)
		}
		out, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		var back Response
		s := jsonscan.Scanner{B: out}
		if !scanResponse(&s, &back) {
			t.Errorf("%s: canonical response decoded through the reference", name)
		}
		checkResponse(t, r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkResponse(t, randomResponse(rng, []byte(offGrammarRequests[rng.Intn(len(offGrammarRequests))])))
	}
	for _, in := range []string{``, `null`, `{}`, `{"op":null}`, `{"n":1,"n":2}`, `{"meta":{"cost":{"phase_ns":{"pack":1,"pack":2}}}}`,
		`{"meta":{"cost":{"phase_ns":{}}}}`, `{"bracket":[]}`, `{"bracket":[1,"2"]}`, `{"schedule":null}`,
		`{"schedule":{"a":[1,{"b":"é"}]}}`, `{"tasks":1} {}`, `{"OP":"x"}`, `{"meta":{"cache":"hit"}}`} {
		checkDecodeResponse(t, []byte(in))
	}
}

// TestEncodingErrorsMatch pins the error path: a schedule that is not
// JSON fails AppendResponse with the encoder's error, and a platform
// that is not JSON fails AppendRequest with json.Marshal's.
func TestEncodingErrorsMatch(t *testing.T) {
	r := &Response{Op: OpMinMakespan, Schedule: json.RawMessage(`{"kind":`)}
	_, err := AppendResponse(nil, r)
	_, want := refAppendResponse(r)
	if err == nil || !sameErr(err, want) {
		t.Fatalf("AppendResponse error %v, want %v", err, want)
	}
	req := &Request{Platform: json.RawMessage(`{"kind":}`), Op: OpMinMakespan}
	_, err = AppendRequest(nil, req)
	_, want = json.Marshal(req)
	var me *json.MarshalerError
	if err == nil || !sameErr(err, want) || !errors.As(err, &me) {
		t.Fatalf("AppendRequest error %v, want %v", err, want)
	}
	// Compaction must not join tokens that whitespace kept apart.
	for _, p := range []string{`[1 2]`, `{"a":tru e}`, `"x" "y"`, `nul l`, `[1, 2 ]`, " {\"a\" :\t\"b c\"} \n",
		`[1e5, -0.5, true, null]`, `{"a":"<"}`, `"\u00e9 \" x"`, `[`, `"open`} {
		req := &Request{Platform: json.RawMessage(p), Op: OpMaxTasks, N: 3}
		got, err := AppendRequest(nil, req)
		want, wantErr := json.Marshal(req)
		if !sameErr(err, wantErr) || (err == nil && !bytes.Equal(got, want)) {
			t.Errorf("AppendRequest(platform %q) = %q, %v; json.Marshal %q, %v", p, got, err, want, wantErr)
		}
	}
}

// FuzzRequest is the differential fuzz of the request codec against
// encoding/json: the shard's decode (values, error strings, trailing
// data ignored, the size limit), the router's platform lookup (trailing
// data rejected) and the client's encoding of what was decoded.
func FuzzRequest(f *testing.F) {
	for _, b := range canonicalRequests(f) {
		f.Add(b)
		f.Add(append(bytes.Clone(b), " trailing {"...))
	}
	for _, in := range offGrammarRequests {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRequest(t, b)
	})
}

// FuzzParseRequest runs body bytes through what a shard does before it
// solves: DecodeRequest, then Service.parse. A body is either refused
// with an error that answers 400, or parsed into a query that passes
// every check parse makes: a known op, a task count that is
// non-negative (positive for min_makespan) and within MaxN, a
// non-negative deadline where the op reads one, and a platform whose
// time horizon holds that many tasks. Never a panic.
func FuzzParseRequest(f *testing.F) {
	for _, b := range canonicalRequests(f) {
		f.Add(b)
	}
	for _, in := range offGrammarRequests {
		f.Add([]byte(in))
	}
	s := New(Config{MaxN: 64})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err == nil {
			var q *query
			if q, err = s.parse(&req); err == nil {
				switch {
				case !req.Op.valid(), req.N < 0, req.N > s.cfg.MaxN,
					req.Op == OpMinMakespan && req.N < 1,
					req.Op.needsDeadline() && req.Deadline < 0:
					t.Fatalf("parse accepted %q: %+v", b, req)
				}
				if err := q.p.CheckHorizon(max(req.N, 1)); err != nil {
					t.Fatalf("parse accepted %q past its horizon: %v", b, err)
				}
				return
			}
		}
		if status := solveStatus(httptest.NewRecorder(), err); status != http.StatusBadRequest {
			t.Fatalf("%q: error %v answers %d, want 400", b, err, status)
		}
	})
}

// FuzzResponse is the differential fuzz of the response codec: random
// responses through AppendResponse against the indenting encoder, what
// it wrote and the raw fuzz bytes through DecodeResponse against
// json.Unmarshal.
func FuzzResponse(f *testing.F) {
	golden := goldenResponses(f)
	for i, name := range []string{"solve", "memo_hit", "spider_schedule", "degraded_bracket"} {
		b, err := refAppendResponse(golden[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int64(i), b)
	}
	f.Add(int64(7), []byte(`{"kind":"chain"}`))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		checkResponse(t, randomResponse(rand.New(rand.NewSource(seed)), raw))
		checkDecodeResponse(t, raw)
	})
}
