package solve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

// TestNewMapsEveryKind: each platform kind gets its engine, reports the
// platform it was built for and answers a query.
func TestNewMapsEveryKind(t *testing.T) {
	leg := platform.NewChain(2, 5, 3, 3)
	sp := platform.NewSpider(leg, platform.NewChain(1, 4))
	for _, p := range []Platform{leg, sp, platform.NewFork(1, 3, 2, 2), platform.TreeFromSpider(sp)} {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Platform().Kind() != p.Kind() {
			t.Errorf("%s solver reports a %s platform", p.Kind(), s.Platform().Kind())
		}
		mk, sch, err := s.MinMakespan(6)
		if err != nil {
			t.Fatal(err)
		}
		if sch.Len() != 6 || sch.Makespan() != mk {
			t.Errorf("%s: %d tasks, makespan %d vs %d", p.Kind(), sch.Len(), sch.Makespan(), mk)
		}
		_, isChain := sch.(*sched.ChainSchedule)
		if isChain != (p.Kind() == "chain") {
			t.Errorf("%s: schedule type %T", p.Kind(), sch)
		}
	}
}

// TestKindErrPrefixesOnce: the kind is prefixed exactly once, and
// cancellations keep the context's own text.
func TestKindErrPrefixesOnce(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("core: negative task count -1"), "chain: core: negative task count -1"},
		{errors.New("chain: task count 0 is not positive"), "chain: task count 0 is not positive"},
		{context.DeadlineExceeded, context.DeadlineExceeded.Error()},
		{context.Canceled, context.Canceled.Error()},
	} {
		got := kindErr("chain", tc.err)
		if (got == nil) != (tc.err == nil) || (got != nil && got.Error() != tc.want) {
			t.Errorf("kindErr(%v) = %v, want %q", tc.err, got, tc.want)
		}
		if tc.err != nil && !errors.Is(got, tc.err) {
			t.Errorf("kindErr(%v) does not wrap its cause", tc.err)
		}
	}
}

// TestCancelledQueryKeepsContextError: a solve stopped by a dead
// context returns the engine's cancellation error as it is, with no
// kind prefix added: the scheduling service maps it to 504/499 by
// errors.Is and returns its text verbatim.
func TestCancelledQueryKeepsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := platform.MustGenerator(5, 1, 9, platform.Uniform)
	for _, tc := range []struct {
		p    Platform
		want string
	}{
		{g.Chain(4), "context canceled"},
		{g.Spider(3, 3), "context canceled"},
		{g.Fork(3), "context canceled"},
		{g.Tree(3, 2), "context canceled"},
	} {
		s, err := New(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCancel(obs.NewCancelCheck(ctx, nil))
		_, _, err = s.MinMakespan(500)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled solve returned %v", tc.p.Kind(), err)
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: cancellation error %q, want it to start %q", tc.p.Kind(), err, tc.want)
		}
	}
}
