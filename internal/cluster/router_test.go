package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
)

// shard is one real service behind a test listener.
type shard struct {
	svc *service.Service
	ts  *httptest.Server
}

func newShard(t *testing.T, cfg service.Config) *shard {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return &shard{svc: svc, ts: ts}
}

func newTestRouter(t *testing.T, shards ...string) *Router {
	t.Helper()
	rt, err := NewRouter(shards, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// spiderOwnedBy searches parameter space for a spider whose fingerprint
// the given member owns, so tests can steer traffic deterministically.
func spiderOwnedBy(t *testing.T, ring *Ring, member string) platform.Spider {
	t.Helper()
	for w := platform.Time(1); w < 2000; w++ {
		sp := platform.NewSpider(platform.NewChain(2, 5, 3, w), platform.NewChain(1, 4))
		if ring.Owner(platform.HashSpider(sp)) == member {
			return sp
		}
	}
	t.Fatal("no spider found owned by " + member)
	return platform.Spider{}
}

func solveBody(t *testing.T, sp platform.Spider, n int) []byte {
	t.Helper()
	req, err := service.NewRequest(sp, service.OpMinMakespan, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSolve(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterForwardsToOwner: a solve lands on exactly the shard the
// ring assigns its platform, counter-asserted on the shards themselves.
func TestRouterForwardsToOwner(t *testing.T) {
	a := newShard(t, service.Config{})
	b := newShard(t, service.Config{})
	rt := newTestRouter(t, a.ts.URL, b.ts.URL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	sp := spiderOwnedBy(t, rt.Ring(), a.ts.URL)
	resp := postSolve(t, router.URL, solveBody(t, sp, 30))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Ms-Shard"); got != a.ts.URL {
		t.Errorf("X-Ms-Shard = %q, want owner %q", got, a.ts.URL)
	}
	if st := a.svc.Stats(); st.Misses != 1 {
		t.Errorf("owner saw %d misses, want 1", st.Misses)
	}
	if st := b.svc.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("non-owner saw traffic: %+v", st)
	}

	// The response body is the shard's own answer, untouched.
	var sresp service.Response
	if err := json.NewDecoder(resp.Body).Decode(&sresp); err != nil {
		t.Fatal(err)
	}
	if sresp.Tasks != 30 || sresp.Makespan <= 0 {
		t.Errorf("forwarded answer tasks=%d makespan=%d", sresp.Tasks, sresp.Makespan)
	}

	// A repeat via the router hits the same warm shard.
	resp2 := postSolve(t, router.URL, solveBody(t, sp, 30))
	resp2.Body.Close()
	if st := a.svc.Stats(); st.Hits != 1 {
		t.Errorf("owner saw %d hits after repeat, want 1", st.Hits)
	}
}

// TestRouterFailover: when the owning shard is unreachable the router
// reroutes to the ring successor and counts the failover; the query
// still answers 200.
func TestRouterFailover(t *testing.T) {
	a := newShard(t, service.Config{})
	// A dead shard: take a real listener's address, then close it so
	// every connection attempt is a transport error.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt := newTestRouter(t, a.ts.URL, deadURL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	sp := spiderOwnedBy(t, rt.Ring(), deadURL)
	resp := postSolve(t, router.URL, solveBody(t, sp, 20))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Ms-Shard"); got != a.ts.URL {
		t.Errorf("X-Ms-Shard = %q, want surviving shard %q", got, a.ts.URL)
	}
	expo := routerMetrics(t, router.URL)
	if v, err := expo.Value("repro_router_failovers_total", nil); err != nil || v != 1 {
		t.Errorf("failovers_total = %v (err %v), want 1", v, err)
	}
	if v, err := expo.Value("repro_router_forward_errors_total",
		map[string]string{"shard": deadURL}); err != nil || v != 1 {
		t.Errorf("forward_errors_total{dead} = %v (err %v), want 1", v, err)
	}
}

func routerMetrics(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	expo, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	return expo
}

// TestRouterMergedMetrics: the fleet /metrics sums same-name samples
// across shards and stays a well-formed exposition.
func TestRouterMergedMetrics(t *testing.T) {
	a := newShard(t, service.Config{})
	b := newShard(t, service.Config{})
	rt := newTestRouter(t, a.ts.URL, b.ts.URL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	spA := spiderOwnedBy(t, rt.Ring(), a.ts.URL)
	spB := spiderOwnedBy(t, rt.Ring(), b.ts.URL)
	postSolve(t, router.URL, solveBody(t, spA, 25)).Body.Close()
	postSolve(t, router.URL, solveBody(t, spB, 25)).Body.Close()

	expo := routerMetrics(t, router.URL)
	if v, err := expo.Value("repro_service_constructions_total", nil); err != nil || v != 2 {
		t.Errorf("fleet constructions_total = %v (err %v), want 2 (one per shard)", v, err)
	}
	if v, err := expo.Value("repro_router_forwards_total",
		map[string]string{"shard": a.ts.URL}); err != nil || v != 1 {
		t.Errorf("forwards_total{a} = %v (err %v), want 1", v, err)
	}
}

// TestRouterHealthAndStats: fleet health is the conjunction of shard
// health, and the merged /metrics sums the shards' counters.
func TestRouterHealthAndStats(t *testing.T) {
	a := newShard(t, service.Config{})
	b := newShard(t, service.Config{})
	rt := newTestRouter(t, a.ts.URL, b.ts.URL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	resp, err := http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet /healthz = %d, want 200", resp.StatusCode)
	}

	// Drain one shard: fleet readiness goes 503 with per-shard detail.
	a.svc.SetDraining(true)
	resp, err = http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var fh fleetHealth
	if err := json.NewDecoder(resp.Body).Decode(&fh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || fh.Status != "degraded" {
		t.Fatalf("degraded fleet /healthz = %d %q, want 503 degraded", resp.StatusCode, fh.Status)
	}
	if fh.Shards[a.ts.URL].OK || !fh.Shards[b.ts.URL].OK {
		t.Errorf("per-shard detail %+v, want a down, b up", fh.Shards)
	}
	a.svc.SetDraining(false)

	// One solve per shard, then the fleet miss count is 2.
	postSolve(t, router.URL, solveBody(t, spiderOwnedBy(t, rt.Ring(), a.ts.URL), 20)).Body.Close()
	postSolve(t, router.URL, solveBody(t, spiderOwnedBy(t, rt.Ring(), b.ts.URL), 20)).Body.Close()
	if v, err := routerMetrics(t, router.URL).Value("repro_service_misses_total", nil); err != nil || v != 2 {
		t.Errorf("fleet misses_total = %v (err %v), want 2", v, err)
	}
	for _, sh := range []*shard{a, b} {
		if st := sh.svc.Stats(); st.Misses != 1 {
			t.Errorf("shard %s misses = %d, want 1", sh.ts.URL, st.Misses)
		}
	}
	// The fleet counters come from /metrics alone; there is no /stats.
	resp, err = http.Get(router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("router /stats = %d, want 404", resp.StatusCode)
	}
}

// TestRouterShardMap: /shards publishes exactly what a client needs to
// build the identical ring.
func TestRouterShardMap(t *testing.T) {
	a := newShard(t, service.Config{})
	b := newShard(t, service.Config{})
	rt := newTestRouter(t, a.ts.URL, b.ts.URL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	resp, err := http.Get(router.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m ShardMapBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Vnodes != 16 || len(m.Shards) != 2 {
		t.Fatalf("shard map %+v, want vnodes 16 and 2 shards", m)
	}
	clientRing := NewRing(m.Vnodes)
	for _, s := range m.Shards {
		if err := clientRing.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	sp := spiderOwnedBy(t, rt.Ring(), a.ts.URL)
	if clientRing.Owner(platform.HashSpider(sp)) != a.ts.URL {
		t.Error("client-built ring disagrees with the router's")
	}
}

// TestRouterRejectsUnroutable: bodies without a decodable platform are
// the router's own 400, never forwarded.
func TestRouterRejectsUnroutable(t *testing.T) {
	a := newShard(t, service.Config{})
	rt := newTestRouter(t, a.ts.URL)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	for _, body := range []string{`{"op":"min_makespan","n":5}`, `not json`, `{"platform":{"kind":"nope"}}`} {
		resp, err := http.Post(router.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := a.svc.Stats(); st.Misses != 0 {
		t.Errorf("unroutable bodies reached the shard: %+v", st)
	}
}

// TestRouterMetricsKeepLabelSetsApart: the fleet /metrics sums a
// sample across shards only when its name and whole label set agree.
// Label sets whose `|k=v` joins coincide stay two series, and a label
// value holding a raw tab, a backslash, a quote and a newline comes out
// as a well-formed exposition carrying the same value.
func TestRouterMetricsKeepLabelSetsApart(t *testing.T) {
	const odd = "tab\there \\ \"q\" \nline"
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Counter("x_total", "", "a", "p|b=q").Add(1)
	b.Counter("x_total", "", "a", "p", "b", "q").Add(2)
	a.Counter("x_total", "", "a", odd).Add(3)
	b.Counter("x_total", "", "a", odd).Add(4)
	texts := map[string]string{}
	for host, reg := range map[string]*obs.Registry{"shard-a:1": a, "shard-b:2": b} {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		texts[host] = sb.String()
	}
	tr := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return textResponse(http.StatusOK, texts[r.URL.Host]), nil
	})
	rt, err := NewRouter([]string{"shard-a:1", "shard-b:2"}, 16, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(rt, http.MethodGet, "/metrics", nil)
	expo, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	for _, c := range []struct {
		labels map[string]string
		want   float64
	}{
		{map[string]string{"a": "p|b=q"}, 1},
		{map[string]string{"a": "p", "b": "q"}, 2},
		{map[string]string{"a": odd}, 7},
	} {
		if v, err := expo.Value("x_total", c.labels); err != nil || v != c.want {
			t.Errorf("x_total%v = %v (err %v), want %v", c.labels, v, err, c.want)
		}
	}
}
