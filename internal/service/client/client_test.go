package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/spider"
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

func testServer(t *testing.T, cfg service.Config) (*service.Service, *Client) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, New(ts.URL, ts.Client())
}

func testSpider() platform.Spider {
	return platform.NewSpider(
		platform.NewChain(2, 5, 3, 3),
		platform.NewChain(1, 4),
	)
}

// TestClientRoundTrip drives the full wire path: solve over HTTP, read
// cache metadata, decode the schedule, check the service's counters.
func TestClientRoundTrip(t *testing.T) {
	svc, cl := testServer(t, service.Config{})
	ctx := context.Background()
	sp := testSpider()
	n := 15

	cold, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Do(ctx, mustRequest(t, sp, service.OpMinMakespan, n, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" || warm.Meta.Cache != "hit" {
		t.Errorf("cache metadata: cold %q warm %q, want miss then hit", cold.Meta.Cache, warm.Meta.Cache)
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
		t.Error("wire schedule differs from the direct solve")
	}
	if err := dec.Spider.Verify(); err != nil {
		t.Errorf("wire schedule infeasible: %v", err)
	}

	if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Constructions != 1 {
		t.Errorf("stats: %+v, want 1 hit, 1 miss, 1 construction", st)
	}

	mt, err := cl.Do(ctx, mustRequest(t, sp, service.OpMaxTasks, 20, 25, false))
	if err != nil {
		t.Fatal(err)
	}
	wantTasks, err := spider.MaxTasks(sp, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Tasks != wantTasks {
		t.Errorf("max_tasks = %d, want %d", mt.Tasks, wantTasks)
	}
}

// TestClientCoalescingOverHTTP proves coalescing end to end: M
// concurrent identical HTTP requests cause exactly one solver
// construction. The server's build hook holds the construction open
// until the other M−1 requests have joined in-flight.
func TestClientCoalescingOverHTTP(t *testing.T) {
	const m = 8
	svc := service.New(service.Config{})
	release := make(chan struct{})
	svc.SetBuildHookForTest(func() { <-release })
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := New(ts.URL, ts.Client())

	sp := testSpider()
	ctx := context.Background()
	var wg sync.WaitGroup
	resps := make([]*service.Response, m)
	errs := make([]error, m)
	req := mustRequest(t, sp, service.OpMinMakespan, 30, 0, true)
	wg.Add(m)
	for i := 0; i < m; i++ {
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cl.Do(ctx, req)
		}(i)
	}
	waitForCoalesced(t, svc, m-1)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Constructions != 1 || st.Coalesced != m-1 {
		t.Errorf("stats = %+v, want exactly 1 construction and %d coalesced", st, m-1)
	}
	wantMk, _, err := spider.MinMakespan(sp, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Makespan != wantMk {
			t.Errorf("response %d: makespan %d, want %d", i, resp.Makespan, wantMk)
		}
	}
}

// TestClientServerErrors: the server's rejection travels back as a
// useful client error.
func TestClientServerErrors(t *testing.T) {
	_, cl := testServer(t, service.Config{})
	ctx := context.Background()

	req := &service.Request{Platform: []byte(`{"kind":"noodle"}`), Op: service.OpMinMakespan, N: 3}
	_, err := cl.Do(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "unknown platform kind") {
		t.Errorf("malformed platform error = %v, want the server's message", err)
	}

	_, err = cl.Do(ctx, &service.Request{Op: service.Op("nope"), N: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op error = %v", err)
	}
}

// TestHandlerMethodsAndHealth covers the non-solve surface.
func TestHandlerMethodsAndHealth(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve = %d, want 405", resp.StatusCode)
	}
}

func waitForCoalesced(t *testing.T, svc *service.Service, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Coalesced != want {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced stuck at %d, want %d", svc.Stats().Coalesced, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientRetriesTransient: a handler armed to fail twice with 503
// succeeds on the third attempt under WithRetry, and the retry
// counters record the journey.
func TestClientRetriesTransient(t *testing.T) {
	svc := service.New(service.Config{
		Faults: faultinject.New(faultinject.Rule{Site: faultinject.SiteHandler, Status: 503, Times: 2}),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := New(ts.URL, ts.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})

	resp, err := cl.Do(context.Background(), mustRequest(t, testSpider(), service.OpMinMakespan, 10, 0, false))
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if resp.Tasks != 10 {
		t.Errorf("tasks = %d, want 10", resp.Tasks)
	}
	st := cl.RetryStats()
	if st.Attempts != 3 || st.Retries != 2 || st.GaveUp != 0 {
		t.Errorf("retry stats = %+v, want 3 attempts, 2 retries, 0 gave-up", st)
	}
}

// TestClientRetryHonorsRetryAfter: a shed (429) carries Retry-After;
// the client's next sleep is at least that long.
func TestClientRetryBudgetAndGiveUp(t *testing.T) {
	svc := service.New(service.Config{
		Faults: faultinject.New(faultinject.Rule{Site: faultinject.SiteHandler, Status: 503}),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := New(ts.URL, ts.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})

	_, err := cl.Do(context.Background(), mustRequest(t, testSpider(), service.OpMinMakespan, 5, 0, false))
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v, want give-up after exhausted attempts", err)
	}
	if st := cl.RetryStats(); st.GaveUp != 1 || st.Attempts != 3 {
		t.Errorf("retry stats = %+v, want 3 attempts and 1 gave-up", st)
	}

	// Client errors (400) must NOT retry.
	svc2 := service.New(service.Config{})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := New(ts2.URL, ts2.Client()).WithRetry(RetryPolicy{BaseBackoff: time.Millisecond})
	_, err = cl2.Do(context.Background(), &service.Request{Op: service.Op("nope"), N: 1})
	if err == nil {
		t.Fatal("invalid op succeeded")
	}
	if st := cl2.RetryStats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("400 retried: stats = %+v", st)
	}
}
