package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/spider"
)

func testSpider() platform.Spider {
	return platform.NewSpider(
		platform.NewChain(2, 5, 3, 3),
		platform.NewChain(1, 4),
		platform.NewChain(3, 2, 1, 6),
	)
}

func mustSpiderRequest(t *testing.T, sp platform.Spider, op Op, n int, deadline platform.Time) *Request {
	t.Helper()
	req, err := NewRequest(sp, op, n, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestCoalescingExactlyOneConstruction is the coalescing proof: M
// concurrent identical requests must trigger exactly one solver
// construction, counter-asserted. The build hook holds the single
// construction open until every other request has registered as
// coalesced, so the assertion is deterministic, not timing-dependent.
func TestCoalescingExactlyOneConstruction(t *testing.T) {
	const m = 12
	sp := testSpider()
	n := 40

	svc := New(Config{})
	release := make(chan struct{})
	svc.testHookBuild = func() { <-release }

	var wg sync.WaitGroup
	resps := make([]*Response, m)
	errs := make([]error, m)
	wg.Add(m)
	for i := 0; i < m; i++ {
		go func(i int) {
			defer wg.Done()
			req := &Request{Op: OpMinMakespan, N: n, IncludeSchedule: true}
			reqBuilt, err := NewRequest(sp, OpMinMakespan, n, 0)
			if err != nil {
				errs[i] = err
				return
			}
			req.Platform = reqBuilt.Platform
			resps[i], errs[i] = svc.Solve(context.Background(), req)
		}(i)
	}

	// Wait until the other m−1 requests have joined the in-flight query,
	// then let the single construction finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if svc.Stats().Coalesced == m-1 {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("coalesced stuck at %d, want %d", svc.Stats().Coalesced, m-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Constructions != 1 {
		t.Errorf("constructions = %d, want exactly 1", st.Constructions)
	}
	if st.Misses != 1 || st.Hits != 0 || st.Coalesced != m-1 {
		t.Errorf("stats = %+v, want 1 miss, 0 hits, %d coalesced", st, m-1)
	}

	// Every response carries the same optimal answer, identical to the
	// direct solver; exactly one response led the flight.
	wantMk, wantSched, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for i, resp := range resps {
		if resp.Makespan != wantMk || resp.Tasks != n {
			t.Fatalf("response %d: makespan %d tasks %d, want %d and %d", i, resp.Makespan, resp.Tasks, wantMk, n)
		}
		dec, err := resp.DecodeSchedule()
		if err != nil {
			t.Fatal(err)
		}
		if dec.Kind != "spider" || !dec.Spider.Equal(wantSched) {
			t.Fatalf("response %d: schedule differs from the direct solve", i)
		}
		if !resp.Meta.Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d responses claim to have led the solve, want 1", leaders)
	}
}

// TestWarmRepeatMatchesDirect: a repeat query must hit the warmed
// solver and return a schedule identical to the direct
// spider.MinMakespan answer.
func TestWarmRepeatMatchesDirect(t *testing.T) {
	sp := testSpider()
	n := 25
	svc := New(Config{})

	req := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	req.IncludeSchedule = true
	cold, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" {
		t.Errorf("cold query cache = %q, want miss", cold.Meta.Cache)
	}

	warm, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Meta.Cache != "hit" {
		t.Errorf("warm query cache = %q, want hit", warm.Meta.Cache)
	}
	if warm.Meta.PlatformHash != platform.HashSpider(sp).String() {
		t.Errorf("platform hash %q does not match HashSpider", warm.Meta.PlatformHash)
	}

	wantMk, wantSched, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Makespan != wantMk {
		t.Errorf("warm makespan %d, want %d", warm.Makespan, wantMk)
	}
	dec, err := warm.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Spider.Equal(wantSched) {
		t.Errorf("warm schedule differs from direct spider.MinMakespan:\nwarm: %v\ndirect: %v", dec.Spider, wantSched)
	}
	st := svc.Stats()
	if st.Constructions != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 construction and 1 hit", st)
	}
}

// TestWarmCrossNMatchesDirect: the cache is keyed by platform, not by
// task count, so a warmed solver answers a sweep of different n. With
// cross-n probe persistence the entry must survive the budget changes
// (every query after the first is a cache hit, one construction total)
// and stay answer-identical to a cold direct solve at each n.
func TestWarmCrossNMatchesDirect(t *testing.T) {
	sp := testSpider()
	svc := New(Config{})
	base := 24
	for i, n := range []int{base, base + 1, base - 1, base + 7, base - 9, base} {
		req := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
		req.IncludeSchedule = true
		resp, err := svc.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantCache := "hit"
		if i == 0 {
			wantCache = "miss"
		}
		if resp.Meta.Cache != wantCache {
			t.Errorf("n=%d: cache = %q, want %q", n, resp.Meta.Cache, wantCache)
		}
		wantMk, wantSched, err := spider.MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Makespan != wantMk || resp.Tasks != n {
			t.Fatalf("n=%d: warm makespan %d tasks %d, direct %d and %d", n, resp.Makespan, resp.Tasks, wantMk, n)
		}
		dec, err := resp.DecodeSchedule()
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Spider.Equal(wantSched) {
			t.Fatalf("n=%d: warm schedule differs from the direct solve", n)
		}
	}
	if st := svc.Stats(); st.Constructions != 1 {
		t.Errorf("cross-n sweep built %d solvers, want 1", st.Constructions)
	}
}

// TestIsomorphicSpidersShareEntry: permuting the legs must land on the
// same warmed solver (order-normalised fingerprint) and still yield a
// feasible optimal schedule expressed in the requester's leg order.
func TestIsomorphicSpidersShareEntry(t *testing.T) {
	sp := testSpider()
	perm := platform.NewSpider(sp.Legs[2], sp.Legs[0], sp.Legs[1])
	n := 18
	svc := New(Config{})

	req := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	if _, err := svc.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	preq := mustSpiderRequest(t, perm, OpMinMakespan, n, 0)
	preq.IncludeSchedule = true
	resp, err := svc.Solve(context.Background(), preq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Meta.Cache != "hit" {
		t.Errorf("permuted query cache = %q, want hit (isomorphic spiders share an entry)", resp.Meta.Cache)
	}
	wantMk, _, err := spider.MinMakespan(perm, n)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != wantMk {
		t.Errorf("permuted makespan %d, want %d", resp.Makespan, wantMk)
	}
	dec, err := resp.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Spider.Spider.Legs) != len(perm.Legs) {
		t.Fatalf("schedule not expressed on the requested spider")
	}
	for b, leg := range dec.Spider.Spider.Legs {
		if !chainsEqual(leg, perm.Legs[b]) {
			t.Fatalf("schedule leg %d does not match the requested order", b)
		}
	}
	if err := dec.Spider.Verify(); err != nil {
		t.Errorf("remapped schedule infeasible: %v", err)
	}
	if got := svc.Stats().Constructions; got != 1 {
		t.Errorf("constructions = %d, want 1 (shared entry)", got)
	}
}

// TestChainQueries: chains ride the memoized incremental plan and must
// match the direct §3 construction exactly.
func TestChainQueries(t *testing.T) {
	ch := platform.NewChain(2, 3, 3, 5)
	svc := New(Config{})

	req, err := NewRequest(ch, OpMinMakespan, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	req.IncludeSchedule = true
	resp, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Schedule(ch, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != want.Makespan() || resp.Tasks != 5 {
		t.Errorf("chain makespan %d tasks %d, want %d and 5", resp.Makespan, resp.Tasks, want.Makespan())
	}
	dec, err := resp.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "chain" || !dec.Chain.Equal(want) {
		t.Errorf("chain schedule differs from core.Schedule")
	}

	// Deadline ops reuse the same warmed plan.
	dreq, err := NewRequest(ch, OpMaxTasks, 9, 14)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := svc.Solve(context.Background(), dreq)
	if err != nil {
		t.Fatal(err)
	}
	wantWithin, err := core.ScheduleWithin(ch, 9, 14)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.Tasks != wantWithin.Len() {
		t.Errorf("max_tasks = %d, want %d", dresp.Tasks, wantWithin.Len())
	}
	if dresp.Meta.Cache != "hit" {
		t.Errorf("deadline op cache = %q, want hit (one warmed plan per chain)", dresp.Meta.Cache)
	}
}

// TestChainAndOneLegSpiderCoexist: a chain and its one-leg spider
// share a canonical fingerprint but are answered by different engines,
// so the service keeps them in separate entries — each request must
// get a schedule in its own envelope kind, both optimal.
func TestChainAndOneLegSpiderCoexist(t *testing.T) {
	ch := platform.NewChain(2, 5, 3, 3)
	sp := platform.NewSpider(ch)
	n := 8
	svc := New(Config{})

	sreq := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	sreq.IncludeSchedule = true
	sresp, err := svc.Solve(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	creq, err := NewRequest(ch, OpMinMakespan, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	creq.IncludeSchedule = true
	cresp, err := svc.Solve(context.Background(), creq)
	if err != nil {
		t.Fatal(err)
	}

	if sresp.Meta.PlatformHash != cresp.Meta.PlatformHash {
		t.Errorf("chain and one-leg spider fingerprints differ")
	}
	if cresp.Meta.Cache != "miss" {
		t.Errorf("chain query after spider query: cache %q, want miss (different solver kinds)", cresp.Meta.Cache)
	}
	sdec, err := sresp.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	cdec, err := cresp.DecodeSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if sdec.Kind != "spider" || cdec.Kind != "chain" {
		t.Errorf("envelope kinds = %q and %q, want spider and chain", sdec.Kind, cdec.Kind)
	}
	if sresp.Makespan != cresp.Makespan {
		t.Errorf("one-leg spider optimum %d != chain optimum %d", sresp.Makespan, cresp.Makespan)
	}
	if err := sdec.Spider.Verify(); err != nil {
		t.Errorf("spider schedule infeasible: %v", err)
	}
	if err := cdec.Chain.Verify(); err != nil {
		t.Errorf("chain schedule infeasible: %v", err)
	}
	if st := svc.Stats(); st.Constructions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 constructions and 2 entries", st)
	}
}

// TestForkSharesSpiderEntry: a fork and its spider form are one cache
// entry, and fork answers match the exhaustive optimum.
func TestForkSharesSpiderEntry(t *testing.T) {
	f := platform.NewFork(1, 3, 2, 2, 3, 1)
	svc := New(Config{})

	freq, err := NewRequest(f, OpMaxTasks, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	fresp, err := svc.Solve(context.Background(), freq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.BruteForkMaxTasks(f, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Tasks != want {
		t.Errorf("fork max_tasks = %d, want %d", fresp.Tasks, want)
	}

	sreq := mustSpiderRequest(t, f.Spider(), OpMaxTasks, 10, 12)
	sresp, err := svc.Solve(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.Meta.Cache != "hit" {
		t.Errorf("spider-form query cache = %q, want hit (fork and spider form share an entry)", sresp.Meta.Cache)
	}
	if sresp.Meta.PlatformHash != fresp.Meta.PlatformHash {
		t.Errorf("fork and spider-form hashes differ")
	}
	if sresp.Tasks != want {
		t.Errorf("spider-form max_tasks = %d, want %d", sresp.Tasks, want)
	}
}

// TestScheduleWithinMatchesSolver compares the deadline-schedule op
// against the direct solver across a deadline sweep on a warm entry.
func TestScheduleWithinMatchesSolver(t *testing.T) {
	sp := testSpider()
	svc := New(Config{})
	for deadline := platform.Time(0); deadline <= 40; deadline += 5 {
		req := mustSpiderRequest(t, sp, OpScheduleWithin, 12, deadline)
		req.IncludeSchedule = true
		resp, err := svc.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := spider.NewSolver(sp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.ScheduleWithin(12, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tasks != want.Len() {
			t.Errorf("deadline %d: scheduled %d, want %d", deadline, resp.Tasks, want.Len())
		}
		dec, err := resp.DecodeSchedule()
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Spider.Equal(want) {
			t.Errorf("deadline %d: schedule differs from direct solve", deadline)
		}
	}
	if st := svc.Stats(); st.Constructions != 1 {
		t.Errorf("constructions = %d, want 1 across the sweep", st.Constructions)
	}
}

// TestEviction: with a one-entry cache, alternating platforms must
// evict and still answer correctly.
func TestEviction(t *testing.T) {
	a := testSpider()
	b := platform.NewSpider(platform.NewChain(4, 4))
	svc := New(Config{CacheSize: 1})

	for round := 0; round < 3; round++ {
		for _, sp := range []platform.Spider{a, b} {
			resp, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 7, 0))
			if err != nil {
				t.Fatal(err)
			}
			wantMk, _, err := spider.MinMakespan(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Makespan != wantMk {
				t.Errorf("round %d: makespan %d, want %d", round, resp.Makespan, wantMk)
			}
		}
	}
	st := svc.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	if st.Evictions < 4 {
		t.Errorf("evictions = %d, want >= 4 (alternating platforms through a one-entry cache)", st.Evictions)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (every repeat was evicted)", st.Hits)
	}
}

// TestBadRequests: every malformed query must be rejected with a clear
// error, and none may leave residue in the cache.
func TestBadRequests(t *testing.T) {
	svc := New(Config{MaxN: 100})
	good := mustSpiderRequest(t, testSpider(), OpMinMakespan, 5, 0)

	cases := []struct {
		name string
		req  *Request
	}{
		{"unknown op", &Request{Platform: good.Platform, Op: "frobnicate", N: 5}},
		{"no platform", &Request{Op: OpMinMakespan, N: 5}},
		{"malformed platform", &Request{Platform: []byte(`{"kind":"noodle"}`), Op: OpMinMakespan, N: 5}},
		{"invalid platform", &Request{Platform: []byte(`{"kind":"chain","chain":{"nodes":[{"c":0,"w":1}]}}`), Op: OpMinMakespan, N: 5}},
		{"zero tasks for min_makespan", &Request{Platform: good.Platform, Op: OpMinMakespan, N: 0}},
		{"negative tasks", &Request{Platform: good.Platform, Op: OpMaxTasks, N: -1, Deadline: 10}},
		{"negative deadline", &Request{Platform: good.Platform, Op: OpMaxTasks, N: 5, Deadline: -1}},
		{"over task limit", &Request{Platform: good.Platform, Op: OpMinMakespan, N: 101}},
		{"horizon overflow", &Request{
			Platform: []byte(fmt.Sprintf(`{"kind":"chain","chain":{"nodes":[{"c":%d,"w":%d}]}}`, int64(1)<<62, int64(1)<<62)),
			Op:       OpMinMakespan, N: 5,
		}},
		{"horizon wraps positive", &Request{
			// c+(n−1)·c+w wraps past zero back to a positive value; the
			// guard must catch wrapping itself, not just a negative sign.
			Platform: []byte(fmt.Sprintf(`{"kind":"chain","chain":{"nodes":[{"c":%d,"w":1}]}}`, int64(math.MaxInt64))),
			Op:       OpMinMakespan, N: 3,
		}},
		{"oversized spider leg beside a sane leg", &Request{
			Platform: []byte(fmt.Sprintf(`{"kind":"spider","spider":{"legs":[{"nodes":[{"c":1,"w":1}]},{"nodes":[{"c":%d,"w":%d}]}]}}`, int64(1)<<62, int64(1)<<62)),
			Op:       OpMinMakespan, N: 5,
		}},
	}
	for _, tc := range cases {
		if _, err := svc.Solve(context.Background(), tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if st := svc.Stats(); st.Entries != 0 || st.Constructions != 0 {
		t.Errorf("bad requests left residue: %+v", st)
	}
}

// TestConcurrentMixedTraffic hammers the service with a mixed workload
// under -race: many goroutines, several platforms, all three ops.
func TestConcurrentMixedTraffic(t *testing.T) {
	g := platform.MustGenerator(7, 1, 9, platform.Uniform)
	spiders := make([]platform.Spider, 4)
	for i := range spiders {
		spiders[i] = g.Spider(1+i, 2)
	}
	svc := New(Config{CacheSize: 2, Workers: 4})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sp := spiders[(w+i)%len(spiders)]
				var req *Request
				var err error
				switch i % 3 {
				case 0:
					req, err = NewRequest(sp, OpMinMakespan, 1+i%9, 0)
				case 1:
					req, err = NewRequest(sp, OpMaxTasks, 10, platform.Time(5+i))
				default:
					req, err = NewRequest(sp, OpScheduleWithin, 8, platform.Time(10+i))
					req.IncludeSchedule = true
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
		}(w)
	}
	wg.Wait()

	// Spot-check correctness after the storm.
	sp := spiders[1]
	resp, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantMk, _, err := spider.MinMakespan(sp, 6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != wantMk {
		t.Errorf("post-storm makespan %d, want %d", resp.Makespan, wantMk)
	}
}

// TestMemoExactRepeat is the result-memo contract: an exact repeat of a
// scalar query answers from the warmed solver's memo — Meta.Memo set,
// memo_hits counted, no solve — while schedule-carrying queries and
// distinct (op, n, deadline) cells never ride it.
func TestMemoExactRepeat(t *testing.T) {
	sp := testSpider()
	n := 18
	svc := New(Config{})

	first, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if first.Meta.Memo {
		t.Error("cold query claims a memo hit")
	}
	repeat, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Meta.Memo {
		t.Error("exact scalar repeat missed the memo")
	}
	if repeat.Meta.SolveNs != 0 {
		t.Errorf("memo hit reports solve time %dns, want 0", repeat.Meta.SolveNs)
	}
	wantMk, _, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Makespan != wantMk || repeat.Tasks != n {
		t.Errorf("memoed answer (mk=%d tasks=%d) != direct solve (mk=%d tasks=%d)",
			repeat.Makespan, repeat.Tasks, wantMk, n)
	}
	if st := svc.Stats(); st.MemoHits != 1 {
		t.Errorf("memo_hits = %d, want 1", st.MemoHits)
	}

	// min_makespan ignores the deadline, so the memo key must too.
	junk, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMinMakespan, n, 999))
	if err != nil {
		t.Fatal(err)
	}
	if !junk.Meta.Memo {
		t.Error("min_makespan with a junk deadline missed the memo")
	}

	// A schedule-carrying repeat must run the real solve and still
	// return the full schedule.
	withSched := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	withSched.IncludeSchedule = true
	full, err := svc.Solve(context.Background(), withSched)
	if err != nil {
		t.Fatal(err)
	}
	if full.Meta.Memo {
		t.Error("schedule-carrying query rode the scalar memo")
	}
	if _, err := full.DecodeSchedule(); err != nil {
		t.Errorf("schedule-carrying repeat lost its schedule: %v", err)
	}

	// Deadline-bearing ops memo per deadline.
	before := svc.Stats().MemoHits
	if _, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMaxTasks, n, 40)); err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMaxTasks, n, 40))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := svc.Solve(context.Background(), mustSpiderRequest(t, sp, OpMaxTasks, n, 41))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Meta.Memo || miss.Meta.Memo {
		t.Errorf("max_tasks memo: repeat=%v shifted-deadline=%v, want hit then miss", hit.Meta.Memo, miss.Meta.Memo)
	}
	if st := svc.Stats(); st.MemoHits != before+1 {
		t.Errorf("memo_hits = %d, want %d (only the max_tasks repeat since the snapshot)", st.MemoHits, before+1)
	}
}
