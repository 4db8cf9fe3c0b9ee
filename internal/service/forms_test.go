package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"regexp"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/platform"
)

// The tests below pin form reuse: a query whose platform bytes match a
// registered form must be answered exactly as a full parse would answer
// it, and registration must never outlive its entry.

// compactBody is the platform envelope without insignificant
// whitespace.
func compactBody(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var cwPair = regexp.MustCompile(`"c":(-?\d+),"w":(-?\d+)`)

// reorderedBody writes the same platform with every node's keys swapped,
// the kind member last and other whitespace: different wire bytes,
// identical values.
func reorderedBody(t *testing.T, b []byte) []byte {
	t.Helper()
	c := compactBody(t, b)
	c = cwPair.ReplaceAll(c, []byte(`"w":$2 , "c":$1`))
	end := bytes.IndexByte(c[1:], ',') + 1 // {"kind":"X",
	kind := c[1:end]
	out := append([]byte("\t{ "), c[end+1:len(c)-1]...)
	out = append(out, " ,\r\n"...)
	out = append(out, kind...)
	return append(out, "}\n"...)
}

// spacedBody adds whitespace after every newline of the writer output.
func spacedBody(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte("\n"), []byte(" \n\t"))
}

func envelope(t *testing.T, mk func() (*Request, error)) []byte {
	t.Helper()
	req, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return req.Platform
}

// formCase is one platform: the canonical body that first warms its
// entry, every other body form that shares that entry, and n.
type formCase struct {
	name   string
	canon  []byte
	bodies [][]byte
	n      int
}

func formCases(t *testing.T) []formCase {
	rng := rand.New(rand.NewSource(5))
	ch := platform.NewChain(2, 5, 3, 3, 1, 4)
	sp := platform.NewSpider(
		platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4), platform.NewChain(2, 5, 3, 3),
		platform.NewChain(3, 2, 1, 6), platform.NewChain(1, 4))
	fk := platform.NewFork(3, 4, 1, 7, 3, 4, 2, 2, 1, 7)
	tr := testTree()

	chainBody := envelope(t, func() (*Request, error) { return NewRequest(ch, OpMinMakespan, 1, 0) })
	spiderBody := envelope(t, func() (*Request, error) { return NewRequest(sp, OpMinMakespan, 1, 0) })
	forkBody := envelope(t, func() (*Request, error) { return NewRequest(fk, OpMinMakespan, 1, 0) })
	treeBody := envelope(t, func() (*Request, error) { return NewRequest(tr, OpMinMakespan, 1, 0) })

	permSp := permuted(rng, sp)
	permFk := platform.Fork{Slaves: append([]platform.Node(nil), fk.Slaves...)}
	rng.Shuffle(len(permFk.Slaves), func(i, j int) { permFk.Slaves[i], permFk.Slaves[j] = permFk.Slaves[j], permFk.Slaves[i] })

	variants := func(b []byte) [][]byte {
		return [][]byte{b, compactBody(t, b), reorderedBody(t, b), spacedBody(b)}
	}
	with := func(bs [][]byte, more ...[]byte) [][]byte {
		for _, b := range more {
			bs = append(bs, variants(b)...)
		}
		return bs
	}
	return []formCase{
		{name: "chain", canon: chainBody, bodies: variants(chainBody), n: 9},
		{name: "spider", canon: spiderBody, n: 11, bodies: with(variants(spiderBody),
			envelope(t, func() (*Request, error) { return NewRequest(permSp, OpMinMakespan, 1, 0) }))},
		{name: "fork", canon: forkBody, n: 12, bodies: with(variants(forkBody),
			envelope(t, func() (*Request, error) { return NewRequest(permFk, OpMinMakespan, 1, 0) }),
			envelope(t, func() (*Request, error) { return NewRequest(fk.Spider(), OpMinMakespan, 1, 0) }))},
		{name: "tree", canon: treeBody, n: 10, bodies: with(variants(treeBody),
			envelope(t, func() (*Request, error) { return NewRequest(permuteTree(tr), OpMinMakespan, 1, 0) }))},
	}
}

// formQueries is the op mix asked of every body: scalar and
// schedule-bearing queries of every op; the deadline is derived from a
// reference min_makespan so max_tasks and schedule_within bind.
func formQueries(body []byte, n int, mk platform.Time) []*Request {
	dl := mk * 2 / 3
	return []*Request{
		{Platform: body, Op: OpMinMakespan, N: n},
		{Platform: body, Op: OpMinMakespan, N: n - 2, IncludeSchedule: true},
		{Platform: body, Op: OpMaxTasks, N: n, Deadline: dl},
		{Platform: body, Op: OpMaxTasks, N: n, Deadline: mk, IncludeSchedule: true},
		{Platform: body, Op: OpScheduleWithin, N: n, Deadline: dl, IncludeSchedule: true},
		{Platform: body, Op: OpScheduleWithin, N: n - 1, Deadline: mk},
	}
}

// freshAnswer answers req on a new service whose only history is one
// construction from the canonical body, so its cached numbering is the
// canonical one and req itself is fully parsed (a new service has no
// forms).
func freshAnswer(t *testing.T, canon []byte, req *Request) *Response {
	t.Helper()
	svc := New(Config{})
	ctx := context.Background()
	if _, err := svc.Solve(ctx, &Request{Platform: canon, Op: OpMinMakespan, N: 1}); err != nil {
		t.Fatal(err)
	}
	r := *req
	resp, err := svc.Solve(ctx, &r)
	if err != nil {
		t.Fatalf("reference answer: %v", err)
	}
	if n := formHits(svc); n != 0 {
		t.Fatalf("reference service reused %d forms", n)
	}
	return resp
}

// sameAnswer compares everything a response carries except the parts
// that depend on timing and interleaving: solve time, cost, memo and
// coalescing flags.
func sameAnswer(got, want *Response) error {
	switch {
	case got.Op != want.Op || got.N != want.N || got.Deadline != want.Deadline:
		return fmt.Errorf("query echo %s/%d/%d, want %s/%d/%d", got.Op, got.N, got.Deadline, want.Op, want.N, want.Deadline)
	case got.Tasks != want.Tasks || got.Makespan != want.Makespan:
		return fmt.Errorf("tasks %d makespan %d, want %d and %d", got.Tasks, got.Makespan, want.Tasks, want.Makespan)
	case got.Degraded || want.Degraded:
		return fmt.Errorf("degraded answer (got %t, want %t)", got.Degraded, want.Degraded)
	case got.Meta.PlatformHash != want.Meta.PlatformHash || got.Meta.Cache != want.Meta.Cache:
		return fmt.Errorf("meta %s/%s, want %s/%s", got.Meta.PlatformHash, got.Meta.Cache, want.Meta.PlatformHash, want.Meta.Cache)
	case !bytes.Equal(got.Schedule, want.Schedule):
		return fmt.Errorf("schedule bytes differ:\n%s\nwant:\n%s", got.Schedule, want.Schedule)
	}
	return nil
}

func formHits(svc *Service) int64 { return svc.m.formHits.Value() }

func maphash64(svc *Service, b []byte) uint64 { return maphash.Bytes(svc.formSeed, b) }

func formCount(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return len(svc.forms)
}

// TestFormReuseDifferential interleaves every body form of every kind
// across goroutines on one service and requires each response to match
// a fresh service's full-parse answer.
func TestFormReuseDifferential(t *testing.T) {
	type job struct {
		canon []byte
		req   *Request
		want  *Response
	}
	svc := New(Config{})
	ctx := context.Background()
	var jobs []job
	for _, fc := range formCases(t) {
		// The canonical body builds the entry first, as in the reference.
		if _, err := svc.Solve(ctx, &Request{Platform: fc.canon, Op: OpMinMakespan, N: 1}); err != nil {
			t.Fatalf("%s: %v", fc.name, err)
		}
		mk := freshAnswer(t, fc.canon, &Request{Platform: fc.canon, Op: OpMinMakespan, N: fc.n}).Makespan
		for _, body := range fc.bodies {
			for _, req := range formQueries(body, fc.n, mk) {
				jobs = append(jobs, job{canon: fc.canon, req: req, want: freshAnswer(t, fc.canon, req)})
			}
		}
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(jobs)) {
					req := *jobs[i].req
					resp, err := svc.Solve(ctx, &req)
					if err == nil {
						err = sameAnswer(resp, jobs[i].want)
					}
					if err != nil {
						errs <- fmt.Errorf("%s %s n=%d: %w", req.Op, req.Platform[:min(len(req.Platform), 40)], req.N, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if formHits(svc) == 0 {
		t.Error("no query reused a registered form")
	}
	if got, want := formCount(svc), len(formCases(t)); got != want {
		t.Errorf("%d forms registered, want one per entry (%d)", got, want)
	}
}

// TestFormReuseLifecycle pins when forms register, hit and miss.
func TestFormReuseLifecycle(t *testing.T) {
	ctx := context.Background()
	sp := testSpider()
	body := envelope(t, func() (*Request, error) { return NewRequest(sp, OpMinMakespan, 1, 0) })
	solve := func(svc *Service, b []byte, n int) (*Response, error) {
		return svc.Solve(ctx, &Request{Platform: b, Op: OpMinMakespan, N: n})
	}

	svc := New(Config{})
	// Construction never registers; the first hit registers; the next
	// byte-identical body reuses the form.
	for i, want := range []struct {
		forms int
		hits  int64
	}{{0, 0}, {1, 0}, {1, 1}} {
		if _, err := solve(svc, body, 20+i); err != nil {
			t.Fatal(err)
		}
		if formCount(svc) != want.forms || formHits(svc) != want.hits {
			t.Fatalf("after query %d: %d forms, %d form hits; want %d and %d", i, formCount(svc), formHits(svc), want.forms, want.hits)
		}
	}

	t.Run("one byte different misses", func(t *testing.T) {
		before := formHits(svc)
		spaced := append(bytes.Clone(body), ' ')
		resp, err := solve(svc, spaced, 30)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(resp, freshAnswer(t, body, &Request{Platform: spaced, Op: OpMinMakespan, N: 30})); err != nil {
			t.Error(err)
		}
		// A changed digit is another platform: it must be answered as
		// itself, never from the registered form.
		other := bytes.Replace(body, []byte(`"c": 2`), []byte(`"c": 3`), 1)
		if bytes.Equal(other, body) {
			t.Fatal("test body has no node to alter")
		}
		resp, err = solve(svc, other, 30)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve(New(Config{}), other, 30)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(resp, want); err != nil {
			t.Error(err)
		}
		if formHits(svc) != before {
			t.Errorf("form hits %d → %d on bodies that differ from the registered one", before, formHits(svc))
		}
		// A maphash match alone is not enough: the SHA-256 must agree.
		q := &query{req: &Request{Platform: other}, body: maphash64(svc, body)}
		if svc.reuseForm(q) {
			t.Error("a body with the registered maphash but another digest reused the form")
		}
	})

	t.Run("horizon error text on a hit", func(t *testing.T) {
		huge := platform.NewChain(1<<50, 1<<50, 1<<50, 1<<50)
		hb := envelope(t, func() (*Request, error) { return NewRequest(huge, OpMinMakespan, 1, 0) })
		svc := New(Config{})
		for i := 0; i < 3; i++ {
			if _, err := solve(svc, hb, 1); err != nil {
				t.Fatal(err)
			}
		}
		hits := formHits(svc)
		_, err := solve(svc, hb, 1<<19)
		if err == nil || formHits(svc) != hits+1 {
			t.Fatalf("overflowing n on a form hit: err %v, form hits %d → %d", err, hits, formHits(svc))
		}
		_, want := solve(New(Config{}), hb, 1<<19)
		if want == nil || err.Error() != want.Error() {
			t.Errorf("form-hit error %q, full-parse error %q", err, want)
		}
	})

	t.Run("invalid platform never registers", func(t *testing.T) {
		svc := New(Config{})
		bad := []byte(`{"kind":"spider","spider":{"legs":[{"nodes":[{"c":-1,"w":2}]}]}}`)
		for i := 0; i < 3; i++ {
			if _, err := solve(svc, bad, 5); err == nil {
				t.Fatal("invalid platform accepted")
			}
		}
		// A valid platform whose query is invalid never reaches the cache.
		for i := 0; i < 3; i++ {
			if _, err := svc.Solve(ctx, &Request{Platform: body, Op: OpMaxTasks, N: -1}); err == nil {
				t.Fatal("negative n accepted")
			}
		}
		if formCount(svc) != 0 {
			t.Errorf("%d forms registered from rejected requests", formCount(svc))
		}
	})

	t.Run("eviction drops the form", func(t *testing.T) {
		svc := New(Config{CacheSize: 1})
		for i := 0; i < 2; i++ {
			if _, err := solve(svc, body, 5+i); err != nil {
				t.Fatal(err)
			}
		}
		if formCount(svc) != 1 {
			t.Fatalf("%d forms, want 1", formCount(svc))
		}
		other := envelope(t, func() (*Request, error) { return NewRequest(platform.NewChain(1, 1), OpMinMakespan, 1, 0) })
		if _, err := solve(svc, other, 5); err != nil {
			t.Fatal(err)
		}
		if formCount(svc) != 0 || svc.Stats().Evictions != 1 {
			t.Fatalf("after eviction: %d forms, %d evictions; want 0 and 1", formCount(svc), svc.Stats().Evictions)
		}
		hits := formHits(svc)
		resp, err := solve(svc, body, 7)
		if err != nil || resp.Meta.Cache != "miss" || formHits(svc) != hits {
			t.Errorf("evicted platform: err %v, cache %q, form hits %d → %d; want a full-parse miss", err, resp.Meta.Cache, hits, formHits(svc))
		}
	})

	t.Run("quarantine drops the form", func(t *testing.T) {
		svc := New(Config{Faults: faultinject.New(faultinject.Rule{Site: faultinject.SiteSolve, Panic: "poisoned", Skip: 2, Times: 1})})
		for i := 0; i < 2; i++ {
			if _, err := solve(svc, body, 5+i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := solve(svc, body, 9); err == nil {
			t.Fatal("poisoned solve succeeded")
		}
		if formHits(svc) != 1 || svc.Stats().Quarantines != 1 || formCount(svc) != 0 {
			t.Fatalf("form hits %d, quarantines %d, forms %d; want 1, 1, 0", formHits(svc), svc.Stats().Quarantines, formCount(svc))
		}
		resp, err := solve(svc, body, 9)
		if err != nil || resp.Meta.Cache != "miss" || formHits(svc) != 1 {
			t.Errorf("after quarantine: err %v, cache %q, form hits %d; want a full-parse miss", err, resp.Meta.Cache, formHits(svc))
		}
	})
}
