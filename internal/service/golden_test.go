package service

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/platform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the /solve golden response files")

// fixTiming replaces the wall-time fields of a real response with fixed
// values, so its bytes are a pure function of the query.
func fixTiming(r *Response) *Response {
	if r.Meta.SolveNs != 0 {
		r.Meta.SolveNs = 123456
	}
	if c := r.Meta.Cost; c != nil && len(c.PhaseNs) > 0 {
		for k := range c.PhaseNs {
			c.PhaseNs[k] = int64(1000 + len(k))
		}
	}
	return r
}

// goldenResponses answers a fixed set of queries, one per response
// shape /solve writes: a memo hit, a scalar solve, schedule-bearing
// chain and spider answers, and the three degraded bounds.
func goldenResponses(t testing.TB) map[string]*Response {
	t.Helper()
	svc := New(Config{})
	ctx := context.Background()
	solve := func(req *Request, err error) *Response {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := svc.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return fixTiming(resp)
	}
	sp := testSpider()
	ch := platform.NewChain(2, 5, 3, 3)
	out := map[string]*Response{
		"solve": solve(NewRequest(sp, OpMinMakespan, 7, 0)),
	}
	out["memo_hit"] = solve(NewRequest(sp, OpMinMakespan, 7, 0))
	if !out["memo_hit"].Meta.Memo {
		t.Fatal("repeat was not a memo hit")
	}
	chReq, err := NewRequest(ch, OpMinMakespan, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	chReq.IncludeSchedule = true
	out["chain_schedule"] = solve(chReq, nil)
	spReq, err := NewRequest(sp, OpScheduleWithin, 6, 14)
	if err != nil {
		t.Fatal(err)
	}
	spReq.IncludeSchedule = true
	out["spider_schedule"] = solve(spReq, nil)
	if len(out["chain_schedule"].Schedule) == 0 || len(out["spider_schedule"].Schedule) == 0 {
		t.Fatal("schedule-bearing query answered without a schedule")
	}
	hash := out["solve"].Meta.PlatformHash
	out["degraded_lower"] = &Response{Op: OpMinMakespan, N: 9, Makespan: 21, Degraded: true,
		Bound: BoundLower, RetryAfterSeconds: 2, Meta: Meta{PlatformHash: hash, Cache: "degraded"}}
	out["degraded_upper"] = &Response{Op: OpMaxTasks, N: 9, Deadline: 15, Tasks: 6, Degraded: true,
		Bound: BoundUpper, RetryAfterSeconds: 1, Meta: Meta{PlatformHash: hash, Cache: "degraded"}}
	out["degraded_bracket"] = &Response{Op: OpMinMakespan, N: 9, Makespan: 21, Degraded: true,
		Bound: BoundBracket, Bracket: []platform.Time{21, 26}, Meta: Meta{PlatformHash: hash, Cache: "degraded"}}
	return out
}

// TestSolveResponseGolden pins the bytes of every /solve response shape
// and of the handler's error bodies. The files were written by the
// encoding/json encoder with a two-space indent; any writer the handler
// uses must reproduce them exactly (rewrite them with -update-golden
// only for a deliberate format change).
func TestSolveResponseGolden(t *testing.T) {
	got := map[string][]byte{}
	for name, resp := range goldenResponses(t) {
		rec := httptest.NewRecorder()
		writeResponse(rec, resp)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
		got[name] = rec.Body.Bytes()
	}
	svc := New(Config{MaxBody: 1024})
	good := mustSpiderRequest(t, testSpider(), OpMinMakespan, 5, 0)
	badOp := `{"platform":` + string(good.Platform) + `,"op":"frobnicate","n":5}`
	for name, body := range map[string]string{
		"error_bad_op":      badOp,
		"error_bad_json":    `{"platform":{"kind":"chain"},"op":`,
		"error_type":        `{"platform":{},"n":"five"}`,
		"error_too_large":   `{"platform":` + strings.Repeat(" ", 1100) + `}`,
		"error_no_platform": `{"op":"min_makespan","n":5}`,
		// The body runs past the limit, but its first JSON value ends
		// inside it: the request decodes and fails on its op.
		"error_past_limit": badOp + strings.Repeat(" ", 1100),
	} {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
		if rec.Code == http.StatusOK {
			t.Fatalf("%s: answered 200", name)
		}
		got[name] = rec.Body.Bytes()
	}
	for name, b := range got {
		path := filepath.Join("testdata", "solve_golden", name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s: response bytes differ from %s:\n%s", name, path, b)
		}
	}
}
