package fork

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

// tinyFork is a quick.Generator for small forks.
type tinyFork struct {
	Fork platform.Fork
	N    int
}

// Generate implements quick.Generator.
func (tinyFork) Generate(r *rand.Rand, _ int) reflect.Value {
	slaves := make([]platform.Node, 1+r.Intn(4))
	for i := range slaves {
		slaves[i] = platform.Node{
			Comm: platform.Time(1 + r.Intn(5)),
			Work: platform.Time(1 + r.Intn(5)),
		}
	}
	return reflect.ValueOf(tinyFork{
		Fork: platform.Fork{Slaves: slaves},
		N:    1 + r.Intn(6),
	})
}

// TestQuickPackMonotoneInDeadline: a longer deadline never admits fewer
// tasks.
func TestQuickPackMonotoneInDeadline(t *testing.T) {
	prop := func(in tinyFork, rawA, rawB uint16) bool {
		a := platform.Time(rawA % 50)
		b := platform.Time(rawB % 50)
		if a > b {
			a, b = b, a
		}
		ma, err := MaxTasks(in.Fork, in.N, a)
		if err != nil {
			return false
		}
		mb, err := MaxTasks(in.Fork, in.N, b)
		if err != nil {
			return false
		}
		return ma <= mb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinMakespanIsTight: the schedule returned by MinMakespan
// meets its reported makespan, verifies, and one unit less fits fewer
// than n tasks.
func TestQuickMinMakespanIsTight(t *testing.T) {
	prop := func(in tinyFork) bool {
		mk, s, err := MinMakespan(in.Fork, in.N)
		if err != nil {
			return false
		}
		if s.Verify() != nil || s.Len() != in.N || s.Makespan() > mk {
			return false
		}
		if mk == 0 {
			return false // n >= 1 tasks need positive time
		}
		under, err := MaxTasks(in.Fork, in.N, mk-1)
		if err != nil {
			return false
		}
		return under < in.N
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPackNeverOverrunsDeadline: every admitted virtual slave's
// promise fits the deadline, whatever the candidate set.
func TestQuickPackNeverOverrunsDeadline(t *testing.T) {
	prop := func(in tinyFork, rawDeadline uint16) bool {
		deadline := platform.Time(rawDeadline % 60)
		alloc, err := Pack(expandFork(in.Fork, in.N), in.N, deadline)
		if err != nil {
			return false
		}
		for _, c := range alloc.Slaves {
			if c.EmitStart+c.Comm+c.Proc > deadline {
				return false
			}
		}
		return len(alloc.Slaves) <= in.N
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
