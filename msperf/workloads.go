package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/plancache"
	"repro/internal/service"
)

const (
	wServeWarm = "serve-warm"
	wWarmProbe = "warm-probe"
	wColdBuild = "cold-build"
)

// Set-up repetitions per run; setup_s is their median. The last
// repetition's system is the one measured.
var setupReps = map[string]int{wServeWarm: 3, wWarmProbe: 3, wColdBuild: 5}

// run is everything one benchmark run measured.
type run struct {
	workload string
	in       *inputs
	workers  []*worker
	elapsed  time.Duration
	setups   []time.Duration
	// timed is the Stats delta over the timed phase; life adds the
	// final set-up, covering the measured system's whole life.
	timed, life   service.Stats
	mem0, mem1    runtime.MemStats
	heapLiveBytes float64
	shapeErrs     []string
	httpBytes     int64
	setupRec      *recorder
	snapshotMs    float64
}

func (r *run) shape(format string, args ...any) {
	r.shapeErrs = append(r.shapeErrs, fmt.Sprintf(format, args...))
}

// lastGC reads the heap the last completed collection marked live, and
// the number of completed collections.
func lastGC() (live int64, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64()), s[1].Value.Uint64()
}

// liveHeap is the live heap after a full collection; two cycles also
// drain sync.Pool victims.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	live, _ := lastGC()
	return live
}

// measure runs the timed phase: a collection first, then the workers,
// with MemStats deltas taken over the phase alone. heap_live is the
// median, over every collection in the phase and a forced one at its
// end, of the live heap minus the baseline taken before set-up and the
// schedules the benchmark holds for the gate. One reading at the end
// would depend on which entries the caches held when the clock ran out.
func (r *run) measure(seconds int, baseline int64) {
	held := func() int64 {
		n := int64(0)
		for _, w := range r.workers {
			n += w.held.Load()
		}
		return n
	}
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	var samples []float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, seen := lastGC()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if live, c := lastGC(); c != seen {
					seen = c
					samples = append(samples, float64(live-baseline-held()))
				}
			}
		}
	}()
	r.elapsed = runClients(r.workers, seconds)
	close(stop)
	<-done
	runtime.ReadMemStats(&r.mem1)
	samples = append(samples, float64(liveHeap()-baseline-held()))
	r.heapLiveBytes = median(samples)
}

func newRun(workload string, in *inputs, mainPath uint8, traceSeed int64, epoch time.Time) *run {
	r := &run{workload: workload, in: in, setupRec: newRecorder(epoch, 2)}
	for c := range in.streams {
		r.workers = append(r.workers, newWorker(c, in, mainPath, traceSeed, epoch))
	}
	return r
}

func (r *run) setRoute(rt *targets) {
	for _, w := range r.workers {
		w.route = rt
	}
}

func (r *run) plannedIssued(class uint8) int {
	n := 0
	for _, w := range r.workers {
		for _, o := range w.out {
			if w.stream[o.q].class == class {
				n++
			}
		}
	}
	return n
}

func (r *run) attempted() int {
	n := 0
	for _, w := range r.workers {
		n += len(w.out)
	}
	return n
}

// runServeWarm: set-up starts the fleet and warms every platform's
// construction and hot queries through the router.
func runServeWarm(in *inputs, seconds int, traceSeed int64, epoch time.Time) (*run, error) {
	r := newRun(wServeWarm, in, pathRouted, traceSeed, epoch)
	baseline := liveHeap()
	ctx := context.Background()
	var f *fleet
	for rep := 0; rep < setupReps[wServeWarm]; rep++ {
		if f != nil {
			f.close()
		}
		sp := r.setupRec.open("setup", -1, -1)
		start := time.Now()
		var err error
		if f, err = startFleet(); err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		rt := f.routes(in.plats)
		for _, q := range in.warm {
			if _, err := rt.routed.Do(ctx, q.request(in.plats)); err != nil {
				f.close()
				return nil, fmt.Errorf("warming: %w", err)
			}
		}
		r.setups = append(r.setups, time.Since(start))
		r.setupRec.close(sp)
		r.setRoute(rt)
	}
	defer f.close()
	before := f.stats()
	bytes0 := f.counter.bytes.Load()
	r.measure(seconds, baseline)
	// The final fleet's counters start at its own construction.
	r.life = f.stats()
	r.timed = subStats(r.life, before)
	r.httpBytes = f.counter.bytes.Load() - bytes0
	if r.timed.Constructions != 0 || r.timed.Evictions != 0 {
		r.shape("timed phase made %d constructions and %d evictions, want 0 and 0", r.timed.Constructions, r.timed.Evictions)
	}
	repeats := uint64(r.plannedIssued(classMemo))
	if r.timed.MemoHits > repeats || r.timed.MemoHits+r.timed.Coalesced < repeats {
		r.shape("memo hits %d (coalesced %d) outside the planned %d exact repeats", r.timed.MemoHits, r.timed.Coalesced, repeats)
	}
	memoAnswers := 0
	for _, w := range r.workers {
		for _, o := range w.out {
			if o.memo != (w.stream[o.q].class == classMemo) && !o.failed {
				memoAnswers++
			}
		}
	}
	if memoAnswers != 0 {
		r.shape("%d answers disagree with the planned memo class", memoAnswers)
	}
	return r, nil
}

// runWarmProbe: before set-up, a service over a plan cache warms every
// platform to its stream's largest n and snapshots. Set-up is the
// restart: a fresh store handle and service, and one first query per
// platform, which rehydrates its solver from the spilled plans.
func runWarmProbe(in *inputs, seconds int, traceSeed int64, epoch time.Time) (*run, error) {
	r := newRun(wWarmProbe, in, pathInproc, traceSeed, epoch)
	ctx := context.Background()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "plancache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := plancache.Open(dir)
	if err != nil {
		return nil, err
	}
	warm := service.New(service.Config{PlanCache: store})
	for i := range in.plats {
		q := query{plat: int32(i), class: classSolve, op: opMin, n: in.warmN[i]}
		if _, err := warm.Solve(ctx, q.request(in.plats)); err != nil {
			return nil, fmt.Errorf("warming platform %d: %w", i, err)
		}
	}
	sp := r.setupRec.open("plancache.Snapshot", -1, -1)
	start := time.Now()
	warm.Snapshot()
	r.snapshotMs = float64(time.Since(start).Nanoseconds()) / 1e6
	r.setupRec.close(sp)
	warm = nil
	baseline := liveHeap()

	var svc *service.Service
	for rep := 0; rep < setupReps[wWarmProbe]; rep++ {
		sp := r.setupRec.open("restart build", -1, -1)
		start := time.Now()
		st, err := plancache.Open(dir)
		if err != nil {
			return nil, err
		}
		svc = service.New(service.Config{PlanCache: st})
		for _, q := range in.warm {
			if _, err := svc.Solve(ctx, q.request(in.plats)); err != nil {
				return nil, fmt.Errorf("restart build: %w", err)
			}
		}
		r.setups = append(r.setups, time.Since(start))
		r.setupRec.close(sp)
	}
	before := svc.Stats()
	if int(before.Rehydrates) != len(in.plats) || before.Constructions != 0 {
		r.shape("restart made %d rehydrates and %d constructions, want %d and 0", before.Rehydrates, before.Constructions, len(in.plats))
	}
	r.setRoute(inproc(svc, len(in.plats)))
	r.measure(seconds, baseline)
	r.life = svc.Stats()
	r.timed = subStats(r.life, before)
	if r.timed.MemoHits != 0 || r.timed.Constructions != 0 {
		r.shape("timed phase made %d memo hits and %d constructions, want 0 and 0", r.timed.MemoHits, r.timed.Constructions)
	}
	return r, nil
}

// inproc sends every platform's requests to one in-process service.
func inproc(svc *service.Service, plats int) *targets {
	rt := &targets{}
	for i := 0; i < plats; i++ {
		rt.svc = append(rt.svc, svc)
	}
	return rt
}

// runColdBuild: set-up starts a service and primes it with one cycle
// of the family pattern; every timed request is a never-seen platform.
func runColdBuild(in *inputs, seconds int, traceSeed int64, epoch time.Time) (*run, error) {
	r := newRun(wColdBuild, in, pathInproc, traceSeed, epoch)
	ctx := context.Background()
	baseline := liveHeap()
	var svc *service.Service
	for rep := 0; rep < setupReps[wColdBuild]; rep++ {
		sp := r.setupRec.open("setup", -1, -1)
		start := time.Now()
		svc = service.New(service.Config{})
		for i, p := range in.primers {
			req := &service.Request{Platform: p.payload, Op: service.OpMinMakespan, N: 2 * p.procs}
			if _, err := svc.Solve(ctx, req); err != nil {
				return nil, fmt.Errorf("priming family %d: %w", i, err)
			}
		}
		r.setups = append(r.setups, time.Since(start))
		r.setupRec.close(sp)
	}
	r.setRoute(inproc(svc, len(in.plats)))
	before := svc.Stats()
	r.measure(seconds, baseline)
	r.life = svc.Stats()
	r.timed = subStats(r.life, before)
	if r.timed.Hits != 0 {
		r.shape("timed phase made %d cache hits, want 0", r.timed.Hits)
	}
	return r, nil
}

// buildDir holds everything a run writes: the plan cache and spans.
var buildDir = filepath.Join(".bench_build", "msperf")
