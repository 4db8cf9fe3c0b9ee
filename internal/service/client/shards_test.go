package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/service"
)

const testVnodes = 16

// spiderOwnedBy searches parameter space for a spider whose hash the
// given ring member owns.
func spiderOwnedBy(t *testing.T, ring *cluster.Ring, member string) platform.Spider {
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

// sheddingServer answers every solve with a 429 carrying the given
// Retry-After, counting the requests.
func sheddingServer(t *testing.T, hits *atomic.Int64, retryAfter string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "overloaded"})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRedirectOn429ToSibling: with a shard map armed, a shed from the
// owning shard sends the very next attempt to the ring sibling — no
// Retry-After sleep — and the sibling's answer wins. Counter-asserted
// on both shards and on RetryStats.Redirects.
func TestRedirectOn429ToSibling(t *testing.T) {
	// A 30s Retry-After makes any accidental sleep unmistakable in the
	// elapsed-time assertion below.
	var ownerHits atomic.Int64
	owner := sheddingServer(t, &ownerHits, "30")

	sibling := service.New(service.Config{})
	siblingTS := httptest.NewServer(sibling.Handler())
	defer siblingTS.Close()

	c, err := New("unused", nil).
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}).
		WithShards([]string{owner.URL, siblingTS.URL}, testVnodes)
	if err != nil {
		t.Fatal(err)
	}

	sp := spiderOwnedBy(t, ringOf(t, owner.URL, siblingTS.URL), owner.URL)
	start := time.Now()
	resp, err := c.Do(context.Background(), mustRequest(t, sp, service.OpMinMakespan, 20, 0, false))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tasks != 20 || resp.Makespan <= 0 {
		t.Fatalf("sibling answer tasks=%d makespan=%d", resp.Tasks, resp.Makespan)
	}
	// The owner's Retry-After was 30s; a redirect must not have slept
	// it out. Seconds of slack keep this robust on loaded machines
	// while still distinguishing "redirected" from "backed off 30s".
	if elapsed > 10*time.Second {
		t.Errorf("solve took %v — the client slept out the Retry-After instead of redirecting", elapsed)
	}
	if got := ownerHits.Load(); got != 1 {
		t.Errorf("owner saw %d requests, want exactly 1", got)
	}
	if st := sibling.Stats(); st.Misses != 1 {
		t.Errorf("sibling saw %d misses, want 1", st.Misses)
	}
	st := c.RetryStats()
	if st.Redirects != 1 {
		t.Errorf("redirects = %d, want 1", st.Redirects)
	}
	if st.Attempts != 2 || st.GaveUp != 0 {
		t.Errorf("retry stats %+v, want 2 attempts, no give-up", st)
	}
}

// TestRedirectOnTransportError: a dead owner redirects to the live
// sibling the same way — the shard-down failure mode.
func TestRedirectOnTransportError(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	sibling := service.New(service.Config{})
	siblingTS := httptest.NewServer(sibling.Handler())
	defer siblingTS.Close()

	c, err := New("unused", nil).
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}).
		WithShards([]string{deadURL, siblingTS.URL}, testVnodes)
	if err != nil {
		t.Fatal(err)
	}
	sp := spiderOwnedBy(t, ringOf(t, deadURL, siblingTS.URL), deadURL)
	resp, err := c.Do(context.Background(), mustRequest(t, sp, service.OpMinMakespan, 15, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tasks != 15 {
		t.Fatalf("sibling answer tasks=%d, want 15", resp.Tasks)
	}
	if st := c.RetryStats(); st.Redirects != 1 {
		t.Errorf("redirects = %d, want 1", st.Redirects)
	}
}

// TestFullCycleFallsBackToBackoff: when every shard sheds, the client
// wraps the cycle and only then backs off — redirects are counted per
// sibling advance, not per attempt.
func TestFullCycleFallsBackToBackoff(t *testing.T) {
	// Retry-After 1s: the wrap sleep honours it (the whole fleet asked
	// for time), so keep it short enough for a test.
	var aHits, bHits atomic.Int64
	a := sheddingServer(t, &aHits, "1")
	b := sheddingServer(t, &bHits, "1")

	c, err := New("unused", nil).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}).
		WithShards([]string{a.URL, b.URL}, testVnodes)
	if err != nil {
		t.Fatal(err)
	}
	sp := spiderOwnedBy(t, ringOf(t, a.URL, b.URL), a.URL)
	_, err = c.Do(context.Background(), mustRequest(t, sp, service.OpMinMakespan, 10, 0, false))
	if err == nil {
		t.Fatal("both shards shed every attempt; Do should give up")
	}
	st := c.RetryStats()
	if st.Attempts != 3 || st.GaveUp != 1 {
		t.Errorf("retry stats %+v, want 3 attempts and 1 give-up", st)
	}
	// Attempt 1 → owner, redirect, attempt 2 → sibling, wrap + backoff,
	// attempt 3 → owner again.
	if st.Redirects != 1 {
		t.Errorf("redirects = %d, want 1 (the single sibling advance)", st.Redirects)
	}
	if aHits.Load() != 2 || bHits.Load() != 1 {
		t.Errorf("owner saw %d / sibling %d requests, want 2 / 1", aHits.Load(), bHits.Load())
	}
}

// TestNoShardMapKeepsSingleBase: without WithShards the client behaves
// exactly as before — one base, ordinary backoff.
func TestNoShardMapKeepsSingleBase(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	resp, err := c.Do(context.Background(), mustRequest(t, platform.NewSpider(platform.NewChain(2, 5)), service.OpMinMakespan, 10, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tasks != 10 {
		t.Fatalf("tasks = %d, want 10", resp.Tasks)
	}
	if st := c.RetryStats(); st.Redirects != 0 {
		t.Errorf("redirects = %d without a shard map, want 0", st.Redirects)
	}
}

// ringOf mirrors the ring the client builds internally, for steering
// test traffic.
func ringOf(t *testing.T, members ...string) *cluster.Ring {
	t.Helper()
	r := cluster.NewRing(testVnodes)
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestWithShardsRejectsEmptyFleet: an empty shard list is an error when
// the map is armed, not a client whose every Do has no target.
func TestWithShardsRejectsEmptyFleet(t *testing.T) {
	if _, err := New("unused", nil).WithShards(nil, testVnodes); err == nil {
		t.Fatal("WithShards accepted an empty shard list")
	}
}
