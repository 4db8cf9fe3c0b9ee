package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
)

func mustChainRequest(t *testing.T, ch platform.Chain, op Op, n int, deadline platform.Time) *Request {
	t.Helper()
	req, err := NewRequest(ch, op, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// scrapeMetrics GETs /metrics off the service's handler and validates
// the body with the package obs parser — the same check CI's e2e step
// runs with curl.
func scrapeMetrics(t *testing.T, h http.Handler) *obs.Exposition {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("/metrics Content-Type %q, want %q", ct, obs.ExpositionContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v\n%s", err, body)
	}
	return e
}

// TestMetricsExposition drives mixed traffic — cold and warm, spider
// and chain, plus a memo repeat — then scrapes /metrics and asserts the
// advertised series exist with exactly the counts the traffic implies.
func TestMetricsExposition(t *testing.T) {
	svc := New(Config{})
	sp := testSpider()
	ch := platform.NewChain(2, 5, 3, 3, 1, 4)

	// Cold spider solve, two warm repeats at new n, one exact (memo)
	// repeat; cold chain solve.
	for _, n := range []int{30, 40, 50, 50} {
		if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Solve(context.Background(), mustChainRequest(t, ch, OpMaxTasks, 20, 500)); err != nil {
		t.Fatal(err)
	}

	e := scrapeMetrics(t, svc.Handler())

	// Warm/cold split of the per-(kind, op) histograms: 1 cold spider
	// solve, 2 warm (the memo repeat never reaches the histogram), 1
	// cold chain solve.
	for _, tc := range []struct {
		kind, op, cache string
		want            float64
	}{
		{"spider", "min_makespan", "miss", 1},
		{"spider", "min_makespan", "hit", 2},
		{"chain", "max_tasks", "miss", 1},
	} {
		got, err := e.Value("repro_solve_duration_ns_count",
			map[string]string{"kind": tc.kind, "op": tc.op, "cache": tc.cache})
		if err != nil || got != tc.want {
			t.Errorf("solve histogram %v: count %v (err %v), want %v", tc, got, err, tc.want)
		}
	}

	// Registry counters agree with Service.Stats.
	st := svc.Stats()
	for name, want := range map[string]uint64{
		"repro_service_hits_total":          st.Hits,
		"repro_service_misses_total":        st.Misses,
		"repro_service_coalesced_total":     st.Coalesced,
		"repro_service_memo_hits_total":     st.MemoHits,
		"repro_service_constructions_total": st.Constructions,
		"repro_service_evictions_total":     st.Evictions,
	} {
		if got, err := e.Value(name, nil); err != nil || got != float64(want) {
			t.Errorf("%s = %v (err %v), want %d", name, got, err, want)
		}
	}
	if st.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (the exact repeat)", st.MemoHits)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptime %v is negative", st.UptimeSeconds)
	}

	// Gauges: nothing in flight now, two warmed entries.
	if got, err := e.Value("repro_service_inflight", nil); err != nil || got != 0 {
		t.Errorf("inflight = %v (err %v), want 0", got, err)
	}
	if got, err := e.Value("repro_service_entries", nil); err != nil || got != float64(st.Entries) {
		t.Errorf("entries = %v (err %v), want %d", got, err, st.Entries)
	}
	if _, err := e.Value("repro_service_uptime_seconds", nil); err != nil {
		t.Errorf("uptime gauge missing: %v", err)
	}

	// Phase counters: the spider solve path must have reported pack
	// and construct time.
	for _, phase := range []string{"construct", "pack"} {
		if got, err := e.Value("repro_solve_phase_ns_total",
			map[string]string{"kind": "spider", "phase": phase}); err != nil || got <= 0 {
			t.Errorf("phase counter spider/%s = %v (err %v), want > 0", phase, got, err)
		}
	}
}

// TestCostBlock pins the per-response cost metadata: a cold solve pays
// construction, a warm one probes without constructing, a memo repeat
// costs nothing.
func TestCostBlock(t *testing.T) {
	svc := New(Config{})
	sp := testSpider()

	cold, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 40, 0))
	if err != nil {
		t.Fatal(err)
	}
	c := cold.Meta.Cost
	if c == nil {
		t.Fatal("cold response carries no cost block")
	}
	if c.Probes <= 0 || c.Constructed <= 0 {
		t.Errorf("cold cost: probes %d constructed %d, want both > 0", c.Probes, c.Constructed)
	}
	if c.PhaseNs["construct"] <= 0 || c.PhaseNs["pack"] <= 0 {
		t.Errorf("cold cost phases missing construct/pack: %v", c.PhaseNs)
	}

	warm, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 25, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := warm.Meta.Cost
	if w == nil || w.Probes <= 0 {
		t.Fatalf("warm cost block: %+v, want probes > 0", w)
	}

	memo, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 25, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !memo.Meta.Memo {
		t.Fatal("exact repeat did not memo-hit")
	}
	m := memo.Meta.Cost
	if m == nil || m.Probes != 0 || m.Constructed != 0 || len(m.PhaseNs) != 0 {
		t.Errorf("memo cost block not zero: %+v", m)
	}
}

// TestSlowQueryLogMatchesCost: with a 1ns threshold every real solve
// logs, and the logged numbers must equal the response's own meta —
// hash, solve time, probe counts and phase breakdown.
func TestSlowQueryLogMatchesCost(t *testing.T) {
	var buf bytes.Buffer
	svc := New(Config{SlowQuery: time.Nanosecond, SlowLog: &buf})
	sp := testSpider()

	resp, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 40, 0))
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query line logged")
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("%d slow-query lines, want 1:\n%s", n, buf.String())
	}
	c := resp.Meta.Cost
	for _, want := range []string{
		"kind=spider",
		"op=min_makespan",
		"n=40",
		"cache=miss",
		"memo=false",
		"platform=" + resp.Meta.PlatformHash,
		fmt.Sprintf("solve_ns=%d", resp.Meta.SolveNs),
		fmt.Sprintf("probes=%d", c.Probes),
		fmt.Sprintf("pack_probes=%d", c.PackProbes),
		fmt.Sprintf("offered=%d", c.Offered),
		fmt.Sprintf("constructed=%d", c.Constructed),
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, line)
		}
	}
	// The phase breakdown must carry the same numbers as the cost block.
	for phase, ns := range c.PhaseNs {
		if !strings.Contains(line, fmt.Sprintf("%s:%d", phase, ns)) {
			t.Errorf("slow-query line phase %s:%d not found:\n%s", phase, ns, line)
		}
	}

	// A memo repeat solves nothing (solve_ns 0) and must not log.
	buf.Reset()
	if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("memo hit logged as slow query:\n%s", buf.String())
	}
}

// TestServiceMetricsHammer is the service half of the -race hammer
// satellite: concurrent goroutines issue distinct queries (no coalesce,
// no memo) across two platform kinds; afterwards the histogram counts
// must sum exactly to the number of requests — no lost updates under
// contention — and the scrape must still parse.
func TestServiceMetricsHammer(t *testing.T) {
	const goroutines = 8
	perG := 40
	if testing.Short() {
		perG = 10
	}
	svc := New(Config{})
	sp := testSpider()
	ch := platform.NewChain(2, 5, 3, 3)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := 1 + g*perG + i // globally unique: every solve is real
				var req *Request
				var err error
				if g%2 == 0 {
					req, err = NewRequest(sp, OpMinMakespan, n, 0)
				} else {
					req, err = NewRequest(ch, OpMaxTasks, n, platform.Time(100+n))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := svc.Solve(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	e := scrapeMetrics(t, svc.Handler())
	var total float64
	for _, s := range e.Samples {
		if s.Name == "repro_solve_duration_ns_count" {
			total += s.Value
		}
	}
	if want := float64(goroutines * perG); total != want {
		t.Errorf("histogram counts sum to %v, want %v", total, want)
	}
	st := svc.Stats()
	if st.Coalesced != 0 || st.MemoHits != 0 {
		t.Errorf("hammer queries unexpectedly coalesced/memoised: %+v", st)
	}
}

// TestHealthzBuildInfo: /healthz answers 200 with build identity and
// uptime.
func TestHealthzBuildInfo(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q, want ok", h.Status)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go_version %q", h.GoVersion)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime %v is negative", h.UptimeSeconds)
	}
}

// TestPprofBehindFlag: the profiler mounts only when Config.Pprof is
// set.
func TestPprofBehindFlag(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv := httptest.NewServer(New(Config{Pprof: on}).Handler())
		resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		wantStatus := http.StatusNotFound
		if on {
			wantStatus = http.StatusOK
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("pprof=%t: /debug/pprof/cmdline status %d, want %d", on, resp.StatusCode, wantStatus)
		}
	}
}
