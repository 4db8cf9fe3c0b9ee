package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
)

// reorderedSpiderEnvelope hand-writes the spider's envelope with the
// body before the kind, every node's keys swapped and its own
// whitespace: the same platform in different wire bytes.
func reorderedSpiderEnvelope(sp platform.Spider) []byte {
	var b strings.Builder
	b.WriteString("{ \"spider\" : {\"legs\":[")
	for i, leg := range sp.Legs {
		if i > 0 {
			b.WriteString(" ,\n")
		}
		b.WriteString(`{"nodes": [`)
		for j, n := range leg.Nodes {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "{\"w\":%d,\t\"c\":%d}", n.Work, n.Comm)
		}
		b.WriteString("]}")
	}
	b.WriteString("]}, \"kind\":\"spider\"}")
	return []byte(b.String())
}

// waitFor polls the service's counters until cond holds.
func waitFor(t *testing.T, svc *Service, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(svc.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightKeyIsLiteralPlatform pins the coalescing contract of the
// flight key, counter-asserted with the build hook holding the one
// construction open: a copy of the leader's platform in different wire
// bytes (key order, whitespace) joins the leader's flight, while a
// leg-permuted spider — same cache entry, different numbering — must
// not, because the leader's schedule is in the leader's leg order.
func TestFlightKeyIsLiteralPlatform(t *testing.T) {
	sp := testSpider()
	perm := platform.NewSpider(sp.Legs[2], sp.Legs[0], sp.Legs[1])
	const n = 30

	svc := New(Config{})
	release := make(chan struct{})
	svc.testHookBuild = func() { <-release }
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	leader := mustSpiderRequest(t, sp, OpMinMakespan, n, 0)
	leader.IncludeSchedule = true
	rewritten := &Request{Platform: reorderedSpiderEnvelope(sp), Op: OpMinMakespan, N: n, IncludeSchedule: true}
	permuted := mustSpiderRequest(t, perm, OpMinMakespan, n, 0)
	permuted.IncludeSchedule = true

	reqs := []*Request{leader, rewritten, permuted}
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = svc.Solve(context.Background(), reqs[i])
		}()
	}
	start(0)
	waitFor(t, svc, "the leader's construction", func(st Stats) bool { return st.Misses == 1 })
	start(1)
	waitFor(t, svc, "the rewritten copy to coalesce", func(st Stats) bool { return st.Coalesced == 1 })
	start(2)
	// The permuted spider shares the cache key, so it waits on the same
	// construction as a second miss — but in a flight of its own.
	waitFor(t, svc, "the permuted spider to wait on the build", func(st Stats) bool { return st.Misses == 2 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Constructions != 1 || st.Coalesced != 1 {
		t.Errorf("constructions %d coalesced %d, want 1 and 1", st.Constructions, st.Coalesced)
	}
	if resps[0].Meta.Coalesced || !resps[1].Meta.Coalesced || resps[2].Meta.Coalesced {
		t.Errorf("coalesced flags %t %t %t, want false true false",
			resps[0].Meta.Coalesced, resps[1].Meta.Coalesced, resps[2].Meta.Coalesced)
	}
	for i, want := range []platform.Spider{sp, sp, perm} {
		dec, err := resps[i].DecodeSchedule()
		if err != nil {
			t.Fatal(err)
		}
		for b, leg := range dec.Spider.Spider.Legs {
			if !chainsEqual(leg, want.Legs[b]) {
				t.Fatalf("response %d: schedule leg %d is not the requester's leg %d", i, b, b)
			}
		}
	}
}
