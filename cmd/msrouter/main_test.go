package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
)

// startRouter boots msrouter on a random port over the given shard
// URLs and returns its base URL plus the shutdown handle.
func startRouter(t *testing.T, shards ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	args := []string{"-addr", "127.0.0.1:0", "-vnodes", "16", "-shards", strings.Join(shards, ",")}
	go func() { done <- run(ctx, args, &out, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("router exited before ready: %v", err)
		return "", nil, nil
	}
}

// TestRouterDaemonEndToEnd: two real shards behind the daemon — solves
// route by ring ownership, repeats hit the owning shard's warm solver,
// the merged metrics and fleet health answer, and shutdown drains.
func TestRouterDaemonEndToEnd(t *testing.T) {
	svcA := service.New(service.Config{})
	shardA := httptest.NewServer(svcA.Handler())
	defer shardA.Close()
	svcB := service.New(service.Config{})
	shardB := httptest.NewServer(svcB.Handler())
	defer shardB.Close()

	base, cancel, done := startRouter(t, shardA.URL, shardB.URL)
	defer cancel()
	cl := client.New(base, nil)
	ctx := context.Background()

	// Steer one platform to each shard via the same ring the router
	// builds from its flags.
	ring := cluster.NewRing(16)
	for _, m := range []string{shardA.URL, shardB.URL} {
		if err := ring.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	ownedBy := func(member string) platform.Spider {
		for w := platform.Time(1); w < 2000; w++ {
			sp := platform.NewSpider(platform.NewChain(2, 5, 3, w), platform.NewChain(1, 4))
			if ring.Owner(platform.HashSpider(sp)) == member {
				return sp
			}
		}
		t.Fatal("no spider found owned by " + member)
		return platform.Spider{}
	}

	spA, spB := ownedBy(shardA.URL), ownedBy(shardB.URL)
	for _, sp := range []platform.Spider{spA, spB, spA} { // third is a warm repeat
		req, err := service.NewRequest(sp, service.OpMinMakespan, 20, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tasks != 20 {
			t.Fatalf("routed answer tasks = %d, want 20", resp.Tasks)
		}
	}
	if st := svcA.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("shard A stats %+v, want 1 miss + 1 warm hit", st)
	}
	if st := svcB.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("shard B stats %+v, want exactly 1 miss", st)
	}

	// Fleet metrics: constructions sum across shards, router counters
	// ride along.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if !strings.Contains(body, "repro_service_constructions_total 2") {
		t.Errorf("merged metrics missing summed constructions:\n%s", keep(body, "constructions"))
	}
	if !strings.Contains(body, "repro_router_forwards_total") {
		t.Error("merged metrics missing the router's own counters")
	}

	// Fleet health: 200 with both shards up.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fleet healthz = %d, want 200", resp.StatusCode)
	}

	// The shard map round-trips into a client-side ring.
	resp, err = http.Get(base + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var m cluster.ShardMapBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Vnodes != 16 || len(m.Shards) != 2 {
		t.Errorf("shard map %+v, want 2 shards at 16 vnodes", m)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain")
	}
}

// TestRouterFlagErrors: bad invocations fail instead of serving.
func TestRouterFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                          // no shards
		{"-shards", " , "},          // effectively no shards
		{"-shards", "a:1", "stray"}, // positional argument
		{"-shards", "a:1", "-addr", "256.0.0.1:bad"}, // unlistenable address
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

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// keep filters body down to lines containing substr, for readable
// failures.
func keep(body, substr string) string {
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestForwardClientPoolsPerShard: the forwarding client owns its
// transport and keeps a shard's default admission depth of idle
// connections per shard, not the default transport's two.
func TestForwardClientPoolsPerShard(t *testing.T) {
	cl := forwardClient(3*time.Second, 4)
	tr, ok := cl.Transport.(*http.Transport)
	if !ok || tr == http.DefaultTransport {
		t.Fatalf("forward client transport %T is not its own *http.Transport", cl.Transport)
	}
	depth := 16 * runtime.GOMAXPROCS(0)
	if tr.MaxIdleConnsPerHost != depth || tr.MaxIdleConns != 4*depth {
		t.Errorf("idle pool %d per shard, %d total; want %d and %d", tr.MaxIdleConnsPerHost, tr.MaxIdleConns, depth, 4*depth)
	}
	if cl.Timeout != 3*time.Second {
		t.Errorf("timeout %v, want 3s", cl.Timeout)
	}
	if def := http.DefaultTransport.(*http.Transport); def.MaxIdleConnsPerHost != 0 {
		t.Errorf("default transport modified: MaxIdleConnsPerHost %d", def.MaxIdleConnsPerHost)
	}
}
