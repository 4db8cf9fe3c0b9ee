package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/solve"
	"repro/internal/spider"
	"repro/internal/tree"
)

// mustRequest builds the /solve request for p, failing the test if the
// platform does not encode.
func mustRequest(t testing.TB, p solve.Platform, op service.Op, n int, deadline platform.Time, withSchedule bool) *service.Request {
	t.Helper()
	req, err := service.NewRequest(p, op, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	req.IncludeSchedule = withSchedule
	return req
}

// daemon is a running msserve: a client for its /solve surface plus
// its base URL for the other endpoints.
type daemon struct {
	*client.Client
	base string
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (*obs.Exposition, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseExposition(resp.Body)
}

// counters reads the named unlabelled series from /metrics.
func (d *daemon) counters(t *testing.T, names ...string) map[string]float64 {
	t.Helper()
	e, err := d.scrape()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, name := range names {
		if out[name], err = e.Value(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// startServer boots msserve on a random port and returns a client for
// it plus the shutdown handle.
func startServer(t *testing.T, args []string) (*daemon, context.CancelFunc, *bytes.Buffer, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, ready) }()
	select {
	case addr := <-ready:
		base := "http://" + addr
		return &daemon{Client: client.New(base, nil), base: base}, cancel, &out, done
	case err := <-done:
		cancel()
		t.Fatalf("server exited before ready: %v", err)
		return nil, nil, nil, nil
	}
}

// TestServeQueryShutdown is the end-to-end daemon test: boot, query
// cold and warm, read the counters, drain gracefully.
func TestServeQueryShutdown(t *testing.T) {
	cl, cancel, out, done := startServer(t, []string{"-cache", "8"})
	defer cancel()
	ctx := context.Background()

	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	n := 10
	cold, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" || warm.Meta.Cache != "hit" {
		t.Errorf("cache metadata over the daemon: %q then %q, want miss then hit", cold.Meta.Cache, warm.Meta.Cache)
	}
	wantMk, wantSched, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Makespan != wantMk {
		t.Errorf("makespan %d, want %d", warm.Makespan, wantMk)
	}
	dec, err := warm.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Spider.Equal(wantSched) {
		t.Error("daemon schedule differs from the direct solve")
	}

	st := cl.counters(t, "repro_service_hits_total", "repro_service_misses_total")
	if st["repro_service_hits_total"] != 1 || st["repro_service_misses_total"] != 1 {
		t.Errorf("metrics = %v, want 1 hit and 1 miss", st)
	}

	// An exact scalar repeat rides the result memo: the first scalar
	// query solves and seeds it, the second answers from it, and the
	// counter travels /metrics.
	if _, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, false)); err != nil {
		t.Fatal(err)
	}
	memoed, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if !memoed.Meta.Memo || memoed.Makespan != wantMk {
		t.Errorf("memo repeat: memo=%v makespan=%d, want memo hit with makespan %d", memoed.Meta.Memo, memoed.Makespan, wantMk)
	}
	if memo := cl.counters(t, "repro_service_memo_hits_total")["repro_service_memo_hits_total"]; memo != 1 {
		t.Errorf("memo hits = %v over the daemon, want 1", memo)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
	for _, frag := range []string{"listening on", "draining", "stopped (3 hits, 1 misses, 0 coalesced, 1 memo hits"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

// TestServeTreeMatchesScheduleTree checks trees end to end: a tree
// served through the msserve daemon answers with a makespan and
// schedule identical to the tree engine's (tree.Schedule), and warm
// repeats hit the LRU and the scalar memo, counter-asserted over
// /metrics.
func TestServeTreeMatchesScheduleTree(t *testing.T) {
	cl, cancel, _, done := startServer(t, nil)
	defer cancel()
	ctx := context.Background()

	tr := repro.Tree{Roots: []repro.TreeNode{
		{Comm: 1, Work: 4, Children: []repro.TreeNode{
			{Comm: 1, Work: 2},
			{Comm: 2, Work: 3, Children: []repro.TreeNode{{Comm: 1, Work: 1}}},
		}},
		{Comm: 3, Work: 2},
	}}
	n := 19
	wantMk, wantSched, _, err := tree.Schedule(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := cl.Do(ctx, mustRequest(t, tr, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Do(ctx, mustRequest(t, tr, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" || warm.Meta.Cache != "hit" {
		t.Errorf("tree cache metadata: %q then %q, want miss then hit", cold.Meta.Cache, warm.Meta.Cache)
	}
	for _, resp := range []*service.Response{cold, warm} {
		if resp.Makespan != wantMk {
			t.Errorf("served makespan %d, want tree.Schedule's %d", resp.Makespan, wantMk)
		}
		dec, err := resp.DecodeSchedule()
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Spider.Equal(wantSched) {
			t.Error("served tree schedule differs from direct tree.Schedule")
		}
	}

	// Scalar repeats ride the per-entry memo.
	if _, err := cl.Do(ctx, mustRequest(t, tr, service.OpMinMakespan, n, 0, false)); err != nil {
		t.Fatal(err)
	}
	memoed, err := cl.Do(ctx, mustRequest(t, tr, service.OpMinMakespan, n, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if !memoed.Meta.Memo || memoed.Makespan != wantMk {
		t.Errorf("tree memo repeat: memo=%v makespan=%d, want memo hit with %d", memoed.Meta.Memo, memoed.Makespan, wantMk)
	}
	st := cl.counters(t, "repro_service_constructions_total", "repro_service_hits_total", "repro_service_memo_hits_total")
	if st["repro_service_constructions_total"] != 1 || st["repro_service_hits_total"] != 3 || st["repro_service_memo_hits_total"] != 1 {
		t.Errorf("metrics = %v, want 1 construction, 3 hits, 1 memo hit", st)
	}
	cancel()
	<-done
}

// TestServeConcurrentClients exercises the daemon under concurrent
// load from several client goroutines.
func TestServeConcurrentClients(t *testing.T) {
	cl, cancel, _, done := startServer(t, nil)
	defer cancel()
	ctx := context.Background()

	sp := platform.NewSpider(platform.NewChain(2, 5), platform.NewChain(1, 4), platform.NewChain(3, 3))
	wantMk, _, err := spider.MinMakespan(sp, 24)
	if err != nil {
		t.Fatal(err)
	}
	req := mustRequest(t, sp, service.OpMinMakespan, 24, 0, false)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := cl.Do(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Makespan != wantMk {
					t.Errorf("makespan %d, want %d", resp.Makespan, wantMk)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := cl.counters(t, "repro_service_constructions_total", "repro_service_hits_total",
		"repro_service_coalesced_total", "repro_service_misses_total")
	if st["repro_service_constructions_total"] != 1 {
		t.Errorf("constructions = %v, want 1 (one platform, 30 queries)", st["repro_service_constructions_total"])
	}
	if st["repro_service_hits_total"]+st["repro_service_coalesced_total"]+st["repro_service_misses_total"] != 30 {
		t.Errorf("hits + coalesced + misses != 30 queries: %v", st)
	}
	cancel()
	<-done
}

// TestServeFlagErrors: bad invocations fail instead of serving.
func TestServeFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "256.0.0.1:bad"}, // unlistenable address
		{"stray"},                  // positional argument
	} {
		var out bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, args, &out, nil)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestServeUsesServiceDefaults pins the wiring: -max-n reaches the
// service config.
func TestServeUsesServiceDefaults(t *testing.T) {
	cl, cancel, _, done := startServer(t, []string{"-max-n", "10"})
	defer cancel()
	ctx := context.Background()
	sp := platform.NewSpider(platform.NewChain(1, 2))
	req, err := service.NewRequest(sp, service.OpMinMakespan, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(ctx, req); err == nil || !strings.Contains(err.Error(), "per-query limit") {
		t.Errorf("over-limit query error = %v, want the per-query limit message", err)
	}
	if _, err := cl.Do(ctx, &service.Request{Platform: req.Platform, Op: service.OpMinMakespan, N: 10}); err != nil {
		t.Errorf("at-limit query failed: %v", err)
	}
	cancel()
	<-done
}

// TestServeDrainTimeoutCancelsStuckSolve is the drain-hardening
// acceptance test: a fault-injected construction sleeps for a minute,
// yet shutdown with -drain-timeout 200ms completes in well under the
// old wait-forever behaviour because the drain deadline cancels the
// in-flight solve context and the checkpointed construction unwinds.
func TestServeDrainTimeoutCancelsStuckSolve(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(rules, []byte(`[{"site":"construct","delay_ms":60000}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cl, cancel, out, done := startServer(t, []string{"-drain-timeout", "200ms", "-faults", rules})
	defer cancel()

	req := mustRequest(t, platform.NewSpider(platform.NewChain(2, 5)), service.OpMinMakespan, 8, 0, false)
	solveErr := make(chan error, 1)
	go func() {
		_, err := cl.Do(context.Background(), req)
		solveErr <- err
	}()
	// Wait until the solve is provably in flight (stuck in the
	// injected construction delay) before pulling the plug.
	waitForMisses(t, cl, 1)

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with a stuck solve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain deadline did not unstick the solve")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("drain took %s; the 200ms deadline should have cancelled the solve", took)
	}
	if err := <-solveErr; err == nil {
		t.Error("the stuck solve reported success")
	}
	if !strings.Contains(out.String(), "FAULT INJECTION ARMED") {
		t.Errorf("armed-faults banner missing:\n%s", out.String())
	}
}

// TestServeLameDuckReadiness: during the -lame-duck window after
// SIGTERM the server still answers, but /healthz is 503 with
// draining=true while /livez stays 200 — the satellite's readiness
// contract, exercised through the real daemon.
func TestServeLameDuckReadiness(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-lame-duck", "2s"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	base := "http://" + addr

	probe := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var h service.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		return resp.StatusCode, h.Status
	}

	if code, status := probe("/healthz"); code != http.StatusOK || status != "ok" {
		t.Errorf("healthz before drain = %d %q, want 200 ok", code, status)
	}
	cancel() // SIGTERM equivalent: the lame-duck window begins
	// Readiness must flip quickly even though the server keeps serving.
	deadline := time.Now().Add(time.Second)
	for {
		code, status := probe("/healthz")
		if code == http.StatusServiceUnavailable && status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz during lame duck = %d %q, want 503 draining", code, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := probe("/livez"); code != http.StatusOK {
		t.Errorf("livez during lame duck = %d, want 200", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not finish draining after the lame-duck window")
	}
}

// waitForMisses polls /metrics until the miss counter reaches want —
// the sign a cold request has entered construction.
func waitForMisses(t *testing.T, cl *daemon, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e, err := cl.scrape()
		if err == nil {
			var misses float64
			if misses, err = e.Value("repro_service_misses_total", nil); err == nil && misses >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("misses never reached %v (scrape err %v)", want, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
