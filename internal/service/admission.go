package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverload marks queries the admission controller refused: the
// bounded queue was full or the predicted backlog exceeded budget. The
// HTTP layer maps it to 429 with a Retry-After header — unless the
// request accepts a degraded answer, in which case the service converts
// the shed into a 200 carrying the O(legs) bound (see degraded.go).
var ErrOverload = errors.New("service: overloaded")

// OverloadError carries the shed decision's backoff hint. It wraps
// ErrOverload, so errors.Is(err, ErrOverload) classifies and
// errors.As(&OverloadError{}) recovers the hint.
type OverloadError struct {
	// RetryAfter is how long the predicted backlog needs to drain —
	// the 429's Retry-After value.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded, retry in %s", e.RetryAfter.Round(time.Second))
}

func (e *OverloadError) Unwrap() error { return ErrOverload }

// admClass is the admission traffic class. Warm queries (a warmed
// solver exists — cache hits and the solve that follows this request's
// own construction) are cheap and latency-sensitive; cold queries
// (solver construction) are the expensive class overload protection
// exists for.
type admClass int

const (
	classWarm admClass = iota
	classCold
)

// admission is the service's cost-aware, two-class admission
// controller: a fixed pool of worker slots fronted by bounded wait
// queues and a load shedder. A request that finds a free slot is
// admitted immediately; otherwise it queues unless its class's queue is
// full or (cold only) the predicted backlog — the summed cost
// predictions of everything already admitted or queued — exceeds the
// configured budget, in which case it is shed with a Retry-After
// computed from that same backlog.
//
// The pool is split so cold-construction storms cannot starve warm
// repeats: `reserve` slots are held back for the warm class and the
// rest are shared. Warm admits take whichever frees first; cold admits
// only ever touch the shared pool. Under a flood of slow constructions
// the shared pool saturates, but a warm repeat still admits the moment
// a reserved slot frees — bounded by warm service time, not by the
// storm's. With no reserve (single worker, or WarmSlots 0) behaviour
// degenerates to the single-class controller.
//
// Cost predictions come from the cost model below: cold requests are
// priced at the kind's construction EWMA — seeded from the platform's
// leg count before any sample exists — plus a warm solve; warm requests
// at the kind's solve EWMA. Shedding therefore starts with the traffic
// that would hold a slot longest.
type admission struct {
	shared   chan struct{} // slots either class may hold
	reserved chan struct{} // warm-only slots; nil when reserve is 0

	workers  int
	queueMax int
	budgetNs int64 // 0 = queue-bound shedding only

	queuedWarm atomic.Int64
	queuedCold atomic.Int64
	backlogNs  atomic.Int64

	sheds obsCounter
}

// obsCounter is the minimal counter surface admission needs; it keeps
// this file free of a direct obs dependency so the wiring stays in
// metrics.go.
type obsCounter interface{ Inc() }

// newAdmission splits workers into reserve warm-only slots and a shared
// pool. reserve must already be clamped to [0, workers-1] (the service
// does; see warmReserve).
func newAdmission(workers, reserve, queueMax int, budget time.Duration, sheds obsCounter) *admission {
	a := &admission{
		shared:   make(chan struct{}, workers-reserve),
		workers:  workers,
		queueMax: queueMax,
		budgetNs: budget.Nanoseconds(),
		sheds:    sheds,
	}
	if reserve > 0 {
		a.reserved = make(chan struct{}, reserve)
	}
	return a
}

// warmReserve resolves the configured warm-slot reservation: an
// explicit positive value is clamped to leave the cold class at least
// one slot; zero picks the default quarter of the pool (at least one)
// whenever there are two or more workers.
func warmReserve(workers, configured int) int {
	if workers < 2 {
		return 0
	}
	if configured > 0 {
		return min(configured, workers-1)
	}
	return max(1, workers/4)
}

// depth returns the total wait-queue depth across both classes (the
// queue_depth gauge and the Stats field).
func (a *admission) depth() int64 { return a.queuedWarm.Load() + a.queuedCold.Load() }

// classDepth returns one class's wait-queue depth.
func (a *admission) classDepth(c admClass) int64 {
	if c == classWarm {
		return a.queuedWarm.Load()
	}
	return a.queuedCold.Load()
}

// saturated reports whether either class's wait queue is at capacity —
// the readiness probe's "stop routing here" signal.
func (a *admission) saturated() bool {
	return a.queuedWarm.Load() >= int64(a.queueMax) || a.queuedCold.Load() >= int64(a.queueMax)
}

// retryAfter converts the current predicted backlog into a client
// backoff hint: the time the slot pool needs to drain it, clamped to
// [1s, 60s] so a mispredicting model still gives sane guidance.
func (a *admission) retryAfter() time.Duration {
	d := time.Duration(a.backlogNs.Load() / int64(a.workers))
	return min(max(d, time.Second), time.Minute)
}

// admit acquires a worker slot for work predicted to cost predNs,
// waiting in the class's bounded queue when the pool is busy. It
// returns a release closure that MUST be called when the work finishes.
// Shed requests return an *OverloadError; a context cancelled while
// queued returns its error.
//
// Shed policy is per class: a cold query sheds when the cold queue is
// full or the predicted backlog exceeds budget; a warm query sheds only
// when the warm queue is full — warm repeats are never budget-shed,
// because the reserved slots bound their wait regardless of how much
// cold work is backed up. waived skips the shed decision entirely —
// used by the solve that immediately follows this same request's
// admitted construction, which already paid admission as the cold
// class.
func (a *admission) admit(ctx context.Context, predNs int64, class admClass, waived bool) (release func(), err error) {
	a.backlogNs.Add(predNs)
	relShared := func() { a.backlogNs.Add(-predNs); <-a.shared }
	relReserved := func() { a.backlogNs.Add(-predNs); <-a.reserved }
	// Fast path: a free slot admits regardless of backlog prediction —
	// shedding work an idle worker could absorb helps nobody.
	if class == classWarm && a.reserved != nil {
		select {
		case a.reserved <- struct{}{}:
			return relReserved, nil
		default:
		}
	}
	select {
	case a.shared <- struct{}{}:
		return relShared, nil
	default:
	}
	queued := &a.queuedCold
	if class == classWarm {
		queued = &a.queuedWarm
	}
	if !waived {
		if queued.Load() >= int64(a.queueMax) ||
			(class == classCold && a.budgetNs > 0 && a.backlogNs.Load() > a.budgetNs) {
			a.backlogNs.Add(-predNs)
			if a.sheds != nil {
				a.sheds.Inc()
			}
			return nil, &OverloadError{RetryAfter: a.retryAfter()}
		}
	}
	queued.Add(1)
	defer queued.Add(-1)
	if class == classWarm && a.reserved != nil {
		select {
		case a.reserved <- struct{}{}:
			return relReserved, nil
		case a.shared <- struct{}{}:
			return relShared, nil
		case <-ctx.Done():
			a.backlogNs.Add(-predNs)
			return nil, ctx.Err()
		}
	}
	select {
	case a.shared <- struct{}{}:
		return relShared, nil
	case <-ctx.Done():
		a.backlogNs.Add(-predNs)
		return nil, ctx.Err()
	}
}

// costModel predicts solve cost per (platform kind, temperature) from
// exponentially weighted moving averages of observed wall times. It
// exists for the load shedder: predictions only rank and size work,
// they never gate correctness, so crude-but-stable beats precise.
type costModel struct {
	mu   sync.Mutex
	cold map[string]int64 // kind -> EWMA ns of construction work
	warm map[string]int64 // kind -> EWMA ns of a warm solve
}

// Priors until the first observation arrives: cold construction is
// conservatively expensive (it is the class overload protection exists
// for) and scales with the platform's leg count — construction work is
// per-leg backward plans — so a first-contact storm of wide platforms
// is priced like one instead of like a cheap probe. A warm solve is
// conservatively cheap.
const (
	coldPriorNs       = int64(50 * time.Millisecond)
	coldPriorPerLegNs = int64(2 * time.Millisecond)
	warmPriorNs       = int64(time.Millisecond)
)

func newCostModel() *costModel {
	return &costModel{cold: make(map[string]int64), warm: make(map[string]int64)}
}

// predict prices one query: a warm solve, plus the construction cost
// when no warmed solver exists for the hash. Before any construction
// sample exists for the kind, the cold estimate is seeded from the
// platform's size (leg count — chains are one leg, trees their
// processor count) instead of a flat prior.
func (cm *costModel) predict(kind string, cold bool, size int) int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	ns := ewmaOr(cm.warm[kind], warmPriorNs)
	if cold {
		prior := max(coldPriorNs, int64(size)*coldPriorPerLegNs)
		ns += ewmaOr(cm.cold[kind], prior)
	}
	return ns
}

func ewmaOr(v, prior int64) int64 {
	if v == 0 {
		return prior
	}
	return v
}

// observe folds one measured wall time into the kind's EWMA
// (α = 1/4; first observation seeds the average).
func (cm *costModel) observe(kind string, cold bool, ns int64) {
	if ns <= 0 {
		ns = 1
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	m := cm.warm
	if cold {
		m = cm.cold
	}
	if old := m[kind]; old == 0 {
		m[kind] = ns
	} else {
		m[kind] = old + (ns-old)/4
	}
}
