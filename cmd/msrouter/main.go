// Command msrouter fronts a fleet of msserve shards with one HTTP
// surface: it forwards each /solve to the shard owning the platform's
// canonical fingerprint on a consistent-hash ring, merges the fleet's
// /metrics, and reports fleet-wide health.
//
// Usage:
//
//	msrouter -shards host1:8080,host2:8080[,...]
//	         [-addr :8070] [-vnodes 64] [-forward-timeout 0]
//	         [-drain-timeout 5s]
//
// Endpoints:
//
//	POST /solve   — forwarded to the owning shard (X-Ms-Shard names
//	                it); transport errors fail over clockwise around
//	                the ring, application errors (429 included) travel
//	                back untouched
//	GET  /metrics — the router's forward/failover counters and the
//	                fleet's expositions, summed by obs.Exposition.Add:
//	                samples with the same name and label set add up
//	GET  /healthz — 200 iff every shard's readiness probe is 200, with
//	                per-shard detail
//	GET  /shards  — the shard map (members + vnodes) for clients that
//	                route themselves (client.WithShards)
//
// Every router (and routing client) given the same -shards list and
// -vnodes computes identical placement — both build one
// cluster.ShardMap from them; there is no coordination protocol, the
// ring IS the protocol. Placement depends only on the member strings,
// so use stable shard addresses. The router's own errors carry the
// shards' JSON error envelope, {"error": "..."}.
//
// The router is stateless: restart it freely, run several in parallel
// behind one load balancer. The warm state lives in the shards and
// their plan caches (msserve -plan-cache).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "msrouter:", err)
		os.Exit(1)
	}
}

// forwardClient returns the client the router forwards /solve through.
// It owns a transport cloned from the default one, which keeps only two
// idle connections per shard, so concurrent forwards beyond two would
// redial. Each shard admits up to its default admission depth of
// requests at once (16 × GOMAXPROCS, service.Config.QueueMax), and the
// pool keeps that many idle connections per shard; the total cap scales
// with the shard count so it never binds first.
func forwardClient(timeout time.Duration, shards int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16 * runtime.GOMAXPROCS(0)
	tr.MaxIdleConns = tr.MaxIdleConnsPerHost * shards
	return &http.Client{Timeout: timeout, Transport: tr}
}

// run starts the router and blocks until ctx is cancelled. When ready
// is non-nil it receives the bound address once the listener is up
// (the test seam for -addr :0).
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("msrouter", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", ":8070", "listen address")
		shardsFlag     = fs.String("shards", "", "comma-separated shard addresses (host:port or http:// URLs); required")
		vnodes         = fs.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per shard — every router and routing client of one fleet must agree")
		forwardTimeout = fs.Duration("forward-timeout", 0, "per-forward HTTP timeout (0 = none; solves can be long)")
		drainTimeout   = fs.Duration("drain-timeout", 5*time.Second, "graceful shutdown window")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return fmt.Errorf("no shards given; -shards host1:port,host2:port is required")
	}

	rt, err := cluster.NewRouter(shards, *vnodes, forwardClient(*forwardTimeout, len(shards)))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "msrouter: listening on %s, routing to %d shards (%d vnodes each)\n",
		ln.Addr(), len(shards), rt.Ring().Vnodes())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "msrouter: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "msrouter: stopped")
	return nil
}
