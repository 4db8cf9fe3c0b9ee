// Command msserve runs the long-lived scheduling service: it answers
// (platform, n) min-makespan / max-tasks / deadline-schedule queries
// over HTTP+JSON, keeping an LRU cache of warmed solvers keyed by the
// canonical platform fingerprint and coalescing identical in-flight
// queries into a single solve.
//
// Usage:
//
//	msserve [-addr :8080] [-cache 64] [-workers 0] [-max-n 1048576]
//	        [-solve-timeout 0] [-queue 0] [-shed-budget 0]
//	        [-warm-slots 0] [-degraded-default]
//	        [-max-body 16777216] [-drain-timeout 5s] [-lame-duck 0]
//	        [-faults FILE] [-slow-query 0] [-pprof] [-plan-cache DIR]
//
// Endpoints:
//
//	POST /solve   — a tagged platform envelope (see msgen) plus
//	                op/n/deadline; answers carry cache/coalesce
//	                metadata and a per-solve cost block (probe counts,
//	                phase-by-phase wall time)
//	GET  /metrics — Prometheus text exposition: per-(kind, op) solve
//	                latency histograms split warm/cold, cache and memo
//	                counters, constructions, evictions, per-phase solve
//	                time, in-flight and queue-depth gauges,
//	                shed/timeout/quarantine counters, uptime
//	GET  /healthz — readiness: 200 while accepting traffic, 503 once
//	                draining or the admission queue is saturated
//	GET  /livez   — liveness: 200 until the process exits
//	GET  /debug/pprof/* — the standard profiler, only with -pprof
//
// Resilience knobs:
//
//   - -solve-timeout bounds each solve's wall time server-side; the
//     solver's cancellation checkpoints stop the work when it passes
//     (a request's own timeout_ms can only tighten it).
//   - -queue bounds the admission wait queue (default 16×workers);
//     -shed-budget additionally sheds cold (construction) work once the
//     predicted backlog exceeds it — an explicit -shed-budget=0 sheds
//     every cold query the pool cannot start immediately. Shed
//     min-makespan/max-tasks queries answer a degraded 200 carrying the
//     O(legs) lower/upper bound (unless the request sets
//     allow_degraded:false, which restores the 429 with Retry-After).
//   - -warm-slots reserves workers for queries whose solver is already
//     cached, so cold-construction storms cannot starve warm repeats.
//   - -degraded-default makes timed-out and cancelled queries answer
//     degraded bounds/brackets by default instead of 504/499; requests
//     override either way with allow_degraded.
//   - -max-body rejects oversized /solve bodies with 413.
//   - -drain-timeout is the graceful-shutdown window: at the deadline
//     still-in-flight solve contexts are cancelled so a stuck solve
//     cannot hold the process hostage. -lame-duck keeps serving (with
//     /healthz already 503) for that long before draining starts, so
//     load balancers can stop routing first.
//   - -faults FILE arms the deterministic fault-injection harness from
//     a JSON rule list (see internal/faultinject) — chaos drills only.
//   - -plan-cache DIR spills constructed leg plans to DIR on eviction
//     and snapshots every warmed solver there during drain, so a
//     restarted shard rehydrates its warm set from disk instead of
//     reconstructing it (see internal/plancache for the file format).
//
// -slow-query DURATION logs every solve at or above the threshold to
// stderr, one line mirroring the response's cost block.
//
// The server drains gracefully on SIGINT/SIGTERM. Example session:
//
//	msgen -kind spider -legs 4 -depth 3 > sp.json
//	msserve -addr :8080 -solve-timeout 2s -slow-query 10ms &
//	curl -s localhost:8080/solve -d '{"platform":'"$(cat sp.json)"',"op":"min_makespan","n":64}'
//	curl -s localhost:8080/metrics
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
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plancache"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled, then drains
// in-flight requests. When ready is non-nil it receives the bound
// address once the listener is up (the test seam for -addr :0).
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("msserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		cache        = fs.Int("cache", 64, "warmed solvers kept (LRU beyond this)")
		workers      = fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		maxN         = fs.Int("max-n", 1<<20, "per-query task count limit")
		solveTimeout = fs.Duration("solve-timeout", 0, "per-solve wall-time bound (0 = none)")
		queueMax     = fs.Int("queue", 0, "admission wait-queue bound (0 = 16×workers)")
		shedBudget   = fs.Duration("shed-budget", 0, "shed cold work once predicted backlog exceeds this (explicit 0 = shed whenever the pool is busy; omitted = queue bound only)")
		warmSlots    = fs.Int("warm-slots", 0, "worker slots reserved for warm (cached-solver) queries (0 = workers/4)")
		degradedDflt = fs.Bool("degraded-default", false, "answer timed-out/cancelled queries with degraded bounds unless the request opts out")
		maxBody      = fs.Int64("max-body", 16<<20, "max /solve request body bytes (413 beyond)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "graceful shutdown window; in-flight solves are cancelled at the deadline")
		lameDuck     = fs.Duration("lame-duck", 0, "keep serving this long after SIGTERM (readiness already 503) before draining")
		faultsFile   = fs.String("faults", "", "JSON fault-injection rules file (chaos drills)")
		slowQuery    = fs.Duration("slow-query", 0, "log solves at or above this wall time (0 = off)")
		pprofOn      = fs.Bool("pprof", false, "mount the profiler under /debug/pprof/")
		planCacheDir = fs.String("plan-cache", "", "directory for the on-disk plan cache (spill on evict, snapshot on drain, rehydrate on restart)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	// An explicit -shed-budget=0 means "no budget at all": shed every
	// cold query that cannot start immediately. The Config encodes
	// budget-disabled as zero, so the drill-friendly meaning maps to the
	// smallest positive budget — one predicted nanosecond of backlog
	// trips it.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shed-budget" && *shedBudget == 0 {
			*shedBudget = time.Nanosecond
		}
	})

	var faults *faultinject.Injector
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			return fmt.Errorf("loading fault rules: %w", err)
		}
		if faults, err = faultinject.Parse(data); err != nil {
			return fmt.Errorf("parsing fault rules: %w", err)
		}
		fmt.Fprintf(out, "msserve: FAULT INJECTION ARMED from %s\n", *faultsFile)
	}

	var plans *plancache.Store
	if *planCacheDir != "" {
		var err error
		if plans, err = plancache.Open(*planCacheDir); err != nil {
			return fmt.Errorf("opening plan cache: %w", err)
		}
		onDisk, _ := plans.Len()
		fmt.Fprintf(out, "msserve: plan cache at %s (%d plans on disk)\n", *planCacheDir, onDisk)
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	svc := service.New(service.Config{
		CacheSize:       *cache,
		Workers:         *workers,
		MaxN:            *maxN,
		SlowQuery:       *slowQuery,
		SlowLog:         os.Stderr,
		Pprof:           *pprofOn,
		SolveTimeout:    *solveTimeout,
		QueueMax:        *queueMax,
		ShedBudget:      *shedBudget,
		WarmSlots:       *warmSlots,
		DegradedDefault: *degradedDflt,
		MaxBody:         *maxBody,
		Faults:          faults,
		PlanCache:       plans,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "msserve: listening on %s (cache %d, workers %d)\n", ln.Addr(), *cache, *workers)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Every request context descends from solveCtx; cancelling it at
	// the drain deadline stops still-running solves at their next
	// cancellation checkpoint, so a stuck solve cannot block shutdown.
	solveCtx, stopSolves := context.WithCancel(context.Background())
	defer stopSolves()
	srv := &http.Server{
		Handler:     svc.Handler(),
		BaseContext: func(net.Listener) context.Context { return solveCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first so load balancers stop routing, then give
	// them the lame-duck window to notice before refusing connections.
	svc.SetDraining(true)
	if *lameDuck > 0 {
		time.Sleep(*lameDuck)
	}
	fmt.Fprintln(out, "msserve: draining")
	deadline := time.AfterFunc(*drainTimeout, stopSolves)
	defer deadline.Stop()
	// Shutdown gets a grace beyond the drain deadline: once stopSolves
	// fires, cancelled handlers unwind in microseconds, so the extra
	// window only matters if something ignores cancellation outright.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// With the last solve drained, snapshot every still-cached solver so
	// the next process over this directory restarts warm.
	if plans != nil {
		entries, legs := svc.Snapshot()
		fmt.Fprintf(out, "msserve: plan cache snapshot (%d solvers, %d legs)\n", entries, legs)
	}
	st := svc.Stats()
	fmt.Fprintf(out, "msserve: stopped (%d hits, %d misses, %d coalesced, %d memo hits, %d evictions)\n",
		st.Hits, st.Misses, st.Coalesced, st.MemoHits, st.Evictions)
	return nil
}
