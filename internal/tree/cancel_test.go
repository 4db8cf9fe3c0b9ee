package tree

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSolverErrorContext: a query stopped by its deadline returns the
// inner engine's error as it is, so the service answers it like any
// other kind's timeout and still finds the interrupted search's
// bracket; every other error names the tree cover it came from.
func TestSolverErrorContext(t *testing.T) {
	s, err := NewSolver(branchy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaxTasks(-1, 10); err == nil || !strings.HasPrefix(err.Error(), "tree: scheduling cover: ") {
		t.Errorf("invalid query: error %v, want the cover prefix", err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s.SetCancel(obs.NewCancelCheck(ctx, nil))
	_, _, err = s.MinMakespan(500)
	var pe *core.PartialError
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &pe) {
		t.Fatalf("timed-out query: error %v, want a deadline *core.PartialError", err)
	}
	if strings.HasPrefix(err.Error(), "tree:") {
		t.Errorf("timed-out query: error %q carries the cover prefix", err)
	}
	for _, q := range []func() error{
		func() error { _, err := s.MaxTasks(500, 1000); return err },
		func() error { _, err := s.ScheduleWithin(500, 1000); return err },
	} {
		if err := q(); !errors.Is(err, context.DeadlineExceeded) || strings.HasPrefix(err.Error(), "tree:") {
			t.Errorf("timed-out query: error %v, want the bare deadline error", err)
		}
	}
}
