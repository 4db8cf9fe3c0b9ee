package service

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
)

// The gates below pin the request layer's allocations on the warm path
// of a wide platform: a byte-identical repeat must take its platform
// from the registered form (no decode, fingerprint or literal digest)
// and a schedule must be written by the appender (no reflection, no
// re-indent pass). Either regression adds tens of allocations and
// roughly a request body or a schedule document of bytes per query.

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after one warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// warmWideService returns a service that has answered reqs three
// times: the entry is warm, its form registered and scalar reqs
// memoised.
func warmWideService(t *testing.T, reqs ...*Request) *Service {
	t.Helper()
	svc := New(Config{})
	for i := 0; i < 3; i++ {
		for _, r := range reqs {
			if _, err := svc.Solve(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if formHits(svc) == 0 {
		t.Fatal("warm-up registered no form")
	}
	return svc
}

func TestWarmRepeatAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wide := dupSpider(rng, 1024, 6)
	const n = 256
	lb, err := wide.LowerBound(n)
	if err != nil {
		t.Fatal(err)
	}
	dl := lb * 3 / 2
	ctx := context.Background()
	solveFn := func(svc *Service, r *Request) func() {
		return func() {
			if _, err := svc.Solve(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("max_tasks repeat", func(t *testing.T) {
		// An exact scalar repeat is a memo hit: everything it allocates
		// is request layer. The full-parse path costs 27 allocations and
		// about 94 KB here.
		req := mustSpiderRequest(t, wide, OpMaxTasks, n, dl)
		svc := warmWideService(t, req)
		f := solveFn(svc, req)
		if got := testing.AllocsPerRun(50, f); got > 8 {
			t.Errorf("warm max_tasks repeat: %.0f allocs, want at most 8", got)
		}
		if got := bytesPerRun(50, f); got > 2048 {
			t.Errorf("warm max_tasks repeat: %.0f B, want at most 2048", got)
		}
	})

	t.Run("schedule_within repeat", func(t *testing.T) {
		// Schedules are never memoised: the repeat re-solves. Its
		// allocations are measured against the same warm solve made
		// directly on the solver, so the gate reads only the request
		// layer: query, flight, admission, response, cost block and the
		// one schedule buffer, 13 allocations. The full-parse and
		// reflection path adds 52 allocations and about 1 MB here.
		req := mustSpiderRequest(t, wide, OpScheduleWithin, n, dl)
		req.IncludeSchedule = true
		svc := warmWideService(t, req)
		direct, err := spider.NewSolver(wide)
		if err != nil {
			t.Fatal(err)
		}
		directFn := func() {
			if _, err := direct.ScheduleWithin(n, dl); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			directFn()
		}
		resp, err := svc.Solve(ctx, req)
		if err != nil || len(resp.Schedule) == 0 {
			t.Fatalf("schedule_within: err %v, %d schedule bytes", err, len(resp.Schedule))
		}
		f := solveFn(svc, req)
		layer := testing.AllocsPerRun(20, f) - testing.AllocsPerRun(20, directFn)
		if layer > 16 {
			t.Errorf("schedule_within repeat: request layer makes %.0f allocs, want at most 16", layer)
		}
		layerBytes := bytesPerRun(20, f) - bytesPerRun(20, directFn)
		if limit := 1.5*float64(len(resp.Schedule)) + 8192; layerBytes > limit {
			t.Errorf("schedule_within repeat: request layer allocates %.0f B for a %d B schedule, want at most %.0f",
				layerBytes, len(resp.Schedule), limit)
		}
	})

	t.Run("AppendSpiderSchedule", func(t *testing.T) {
		s, err := spider.NewSolver(wide)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := s.ScheduleWithin(n, dl)
		if err != nil {
			t.Fatal(err)
		}
		buf := sched.AppendSpiderSchedule(nil, sch)
		if got := testing.AllocsPerRun(20, func() { buf = sched.AppendSpiderSchedule(buf[:0], sch) }); got > 1 {
			t.Errorf("AppendSpiderSchedule into a sized buffer: %.0f allocs, want at most 1", got)
		}
	})
}

// TestWireCodecAllocations pins the /solve codec's allocations on a
// 1024-leg spider request: the shard's wrapper decode must not cost
// more than decoding the platform it wraps, the router's platform
// lookup nothing, and a memo-hit answer at most one allocation once its
// buffer is sized.
func TestWireCodecAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	req := mustSpiderRequest(t, dupSpider(rng, 1024, 6), OpMaxTasks, 256, 1000)
	body, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("request decode", func(t *testing.T) {
		platformDecode := testing.AllocsPerRun(20, func() {
			if _, err := platform.Decode(req.Platform); err != nil {
				t.Fatal(err)
			}
		})
		got := testing.AllocsPerRun(20, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		})
		if got > platformDecode {
			t.Errorf("wrapper decode: %.0f allocs, platform.Decode %.0f", got, platformDecode)
		}
	})
	t.Run("router platform lookup", func(t *testing.T) {
		if got := testing.AllocsPerRun(20, func() {
			if RequestPlatform(body) == nil {
				t.Fatal("no platform")
			}
		}); got != 0 {
			t.Errorf("RequestPlatform: %.0f allocs, want 0", got)
		}
	})
	t.Run("memo-hit response", func(t *testing.T) {
		svc := warmWideService(t, req)
		resp, err := svc.Solve(context.Background(), req)
		if err != nil || !resp.Meta.Memo {
			t.Fatalf("warm repeat: memo %v, err %v", resp != nil && resp.Meta.Memo, err)
		}
		buf := make([]byte, 0, responseSize(resp))
		if got := testing.AllocsPerRun(50, func() {
			if _, err := AppendResponse(buf[:0], resp); err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("AppendResponse of a memo hit: %.0f allocs, want at most 1", got)
		}
	})
}
