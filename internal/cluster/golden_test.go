package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/solve"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the router's golden body files")

// Two fixed shard scrapes: shared and shard-only families, labelled
// counters, a fractional gauge, histograms with one shared and one
// shard-only instance, HELP lines, and a label value holding the three
// escapes the format defines. Shard b lists every series of shard a in
// a's order and adds its own after them, so the merged order does not
// depend on which scrape is folded first.
const (
	goldenShardA = `# HELP repro_service_hits_total warm hits
# TYPE repro_service_hits_total counter
repro_service_hits_total 3
# TYPE repro_service_inflight gauge
repro_service_inflight 1
# HELP repro_solve_duration_ns solve latency
# TYPE repro_solve_duration_ns histogram
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="1000"} 1
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="10000"} 2
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="+Inf"} 3
repro_solve_duration_ns_sum{cache="hit",kind="spider"} 12500
repro_solve_duration_ns_count{cache="hit",kind="spider"} 3
# TYPE repro_service_degraded_total counter
repro_service_degraded_total{reason="shed"} 2
repro_service_degraded_total{reason="timeout"} 0
# TYPE repro_service_load gauge
repro_service_load 0.25
`
	goldenShardB = `# TYPE repro_service_hits_total counter
repro_service_hits_total 5
# TYPE repro_service_inflight gauge
repro_service_inflight 2
# TYPE repro_solve_duration_ns histogram
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="1000"} 0
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="10000"} 4
repro_solve_duration_ns_bucket{cache="hit",kind="spider",le="+Inf"} 4
repro_solve_duration_ns_sum{cache="hit",kind="spider"} 30000
repro_solve_duration_ns_count{cache="hit",kind="spider"} 4
repro_solve_duration_ns_bucket{cache="miss",kind="tree",le="1000"} 0
repro_solve_duration_ns_bucket{cache="miss",kind="tree",le="10000"} 0
repro_solve_duration_ns_bucket{cache="miss",kind="tree",le="+Inf"} 1
repro_solve_duration_ns_sum{cache="miss",kind="tree"} 250000
repro_solve_duration_ns_count{cache="miss",kind="tree"} 1
# TYPE repro_service_degraded_total counter
repro_service_degraded_total{reason="shed"} 0
repro_service_degraded_total{reason="timeout"} 4
repro_service_degraded_total{reason="a \"quoted\" \\ path\nline"} 1
# TYPE repro_service_load gauge
repro_service_load 0.5
# TYPE repro_service_entries gauge
repro_service_entries 7
`
)

// roundTripFunc serves a router's forwards in memory.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func textResponse(status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": {"text/plain"}},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// goldenRouter fronts two in-memory shards, "shard-a:1" and
// "shard-b:2". Shard a answers every solve; shard b is down for solves
// (so a solve it owns fails over to a) but serves its scrape. When
// solvesDown is set, both shards are down for solves and health.
func goldenRouter(t *testing.T, solvesDown bool) *Router {
	t.Helper()
	down := errors.New("shard down")
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		switch {
		case r.URL.Path == "/metrics" && r.URL.Host == "shard-a:1":
			return textResponse(http.StatusOK, goldenShardA), nil
		case r.URL.Path == "/metrics" && r.URL.Host == "shard-b:2":
			return textResponse(http.StatusOK, goldenShardB), nil
		case solvesDown, r.URL.Host == "shard-b:2":
			return nil, down
		case r.URL.Path == "/solve":
			return textResponse(http.StatusOK, `{}`), nil
		}
		return textResponse(http.StatusOK, `{"status":"ok"}`), nil
	})
	rt, err := NewRouter([]string{"shard-a:1", "shard-b:2"}, 16, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// serve runs one request through the router's handler in memory.
func serve(rt *Router, method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

// checkGolden compares got with testdata/router_golden/name, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "router_golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: bytes differ from %s:\n%s", name, path, got)
	}
}

// TestRouterMetricsGolden pins the merged /metrics bytes for two fixed
// shard scrapes plus the router's own registry, after one solve owned
// by each shard (one of them failed over).
func TestRouterMetricsGolden(t *testing.T) {
	rt := goldenRouter(t, false)
	for _, member := range []string{"shard-a:1", "shard-b:2"} {
		body := solveBody(t, spiderOwnedBy(t, rt.Ring(), member), 5)
		if rec := serve(rt, http.MethodPost, "/solve", bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("solve owned by %s: %d %s", member, rec.Code, rec.Body)
		}
	}
	serve(rt, http.MethodPost, "/solve", strings.NewReader(`not json`))
	rec := serve(rt, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body)
	}
	checkGolden(t, "metrics.txt", rec.Body.Bytes())
}

// TestRouterErrorGolden pins the bodies of the router's own answers:
// its 400, 405, 413 and 502 errors, /healthz with a shard down, and
// /shards.
func TestRouterErrorGolden(t *testing.T) {
	rt := goldenRouter(t, false)
	downRT := goldenRouter(t, true)
	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	for _, c := range []struct {
		name   string
		rt     *Router
		method string
		path   string
		body   io.Reader
		status int
	}{
		{"400_no_platform.json", rt, http.MethodPost, "/solve", strings.NewReader(`{"op":"min_makespan","n":5}`), http.StatusBadRequest},
		{"400_bad_kind.json", rt, http.MethodPost, "/solve", strings.NewReader(`{"platform":{"kind":"nope"}}`), http.StatusBadRequest},
		{"405_solve.json", rt, http.MethodGet, "/solve", nil, http.StatusMethodNotAllowed},
		{"405_metrics.json", rt, http.MethodPost, "/metrics", nil, http.StatusMethodNotAllowed},
		{"405_healthz.json", rt, http.MethodPost, "/healthz", nil, http.StatusMethodNotAllowed},
		{"405_shards.json", rt, http.MethodPost, "/shards", nil, http.StatusMethodNotAllowed},
		{"413.json", rt, http.MethodPost, "/solve", io.LimitReader(zeros{}, routerMaxBody+1), http.StatusRequestEntityTooLarge},
		{"502.json", downRT, http.MethodPost, "/solve", bytes.NewReader(solveBody(t, sp, 5)), http.StatusBadGateway},
		{"healthz_503.json", rt, http.MethodGet, "/healthz", nil, http.StatusServiceUnavailable},
		{"shards.json", rt, http.MethodGet, "/shards", nil, http.StatusOK},
	} {
		rec := serve(c.rt, c.method, c.path, c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.status)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		checkGolden(t, c.name, rec.Body.Bytes())
	}
}

// zeros is an endless body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestRouterRendersShardSeriesVerbatim: one series, one rendering. A
// real service's scrape goes through the router's merge, and every
// sample line of it, histogram buckets included, comes out of the fleet
// /metrics byte for byte.
func TestRouterRendersShardSeriesVerbatim(t *testing.T) {
	svc := service.New(service.Config{})
	var scraped []byte
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(r.Method, r.URL.Path, r.Body))
		if r.URL.Path == "/metrics" {
			scraped = rec.Body.Bytes()
		}
		return rec.Result(), nil
	})
	rt, err := NewRouter([]string{"shard-a:1"}, 16, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	tree := platform.Tree{Roots: []platform.TreeNode{{Comm: 2, Work: 5, Children: []platform.TreeNode{{Comm: 3, Work: 3}}}}}
	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	for _, q := range []struct {
		p        solve.Platform
		op       service.Op
		n        int
		deadline platform.Time
	}{
		{tree, service.OpMinMakespan, 4, 0},
		{tree, service.OpMinMakespan, 4, 0},
		{sp, service.OpMaxTasks, 0, 30},
	} {
		req, err := service.NewRequest(q.p, q.op, q.n, q.deadline)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := serve(rt, http.MethodPost, "/solve", bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("solve: %d %s", rec.Code, rec.Body)
		}
	}
	rec := serve(rt, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body)
	}
	merged := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		merged[line] = true
	}
	buckets := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(scraped), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !merged[line] {
			t.Errorf("shard sample missing from the fleet view: %s", line)
		}
		if strings.Contains(line, `_bucket{`) {
			buckets++
		}
	}
	if buckets == 0 {
		t.Fatalf("the shard's scrape held no histogram buckets:\n%s", scraped)
	}
}

// TestRouterMetricsLabelValueWithBrace: a `}` inside a label value is
// part of the value. A shard scrape holding one merges into a 200, and
// the router's own counters for a shard whose name holds one stay in
// the fleet view.
func TestRouterMetricsLabelValueWithBrace(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "", "path", "a}b").Add(2)
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return textResponse(http.StatusOK, text.String()), nil
	})
	const braced = "http://shard-b:2/x}y"
	rt, err := NewRouter([]string{"shard-a:1", braced}, 16, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(rt, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body)
	}
	expo, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	if v, err := expo.Value("x_total", map[string]string{"path": "a}b"}); err != nil || v != 4 {
		t.Errorf(`x_total{path="a}b"} = %v (err %v), want 4`, v, err)
	}
	if _, err := expo.Value("repro_router_forwards_total", map[string]string{"shard": braced}); err != nil {
		t.Errorf("router counter for shard %q: %v", braced, err)
	}
}
