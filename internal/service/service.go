package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/big"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/spider"
)

// Config sizes the service.
type Config struct {
	// CacheSize is the maximum number of warmed solvers kept; least
	// recently used entries are evicted beyond it. Default 64.
	CacheSize int
	// Workers caps concurrent solver work (constructions and solves);
	// requests beyond the cap queue. Default GOMAXPROCS.
	Workers int
	// MaxN rejects queries whose task count exceeds it, bounding the
	// memory one query can pin in a warmed plan. Default 1 << 20.
	MaxN int
	// SlowQuery, when positive, logs every solve whose wall time
	// reaches it — one line carrying the platform hash, cache
	// disposition, probe counts and phase breakdown, matching the
	// response's cost block. Zero disables the log.
	SlowQuery time.Duration
	// SlowLog receives the slow-query lines; nil means os.Stderr.
	SlowLog io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/ on the Handler.
	// Off by default: the profiler exposes internals and costs a little
	// on every allocation when profiled.
	Pprof bool
	// SolveTimeout, when positive, bounds every solve's wall time: the
	// request context is given this deadline (tightened further by a
	// request's own timeout_ms) and the solver's cooperative
	// cancellation checkpoints stop the work when it passes. Zero means
	// no server-side deadline.
	SolveTimeout time.Duration
	// QueueMax bounds the admission wait queue: requests beyond the
	// Workers concurrency cap queue up to QueueMax deep, and further
	// arrivals are shed with ErrOverload (HTTP 429). Default
	// 16×Workers.
	QueueMax int
	// ShedBudget, when positive, sheds cold (construction) work while
	// the worker pool is busy and the predicted backlog — the summed
	// cost-model predictions of admitted and queued work — exceeds it.
	// Zero disables cost-based shedding (the queue bound still
	// applies). Warm repeats are never budget-shed: the reserved warm
	// slots bound their wait.
	ShedBudget time.Duration
	// WarmSlots reserves worker slots for the warm admission class —
	// queries whose solver is already cached — so cold-construction
	// storms cannot starve warm repeats. Zero picks the default (a
	// quarter of Workers, at least one, when Workers >= 2); values are
	// clamped to leave the cold class at least one slot.
	WarmSlots int
	// DegradedDefault makes timed-out and cancelled queries answer
	// degraded 200s (best-so-far bound or bracket) by default; requests
	// still override per query with allow_degraded. Off, the default,
	// keeps the PR 8 contract: 504/499 unless the request opts in.
	// Sheds are the other way around: they degrade unless the request
	// opts out, because the O(legs) bound is computed without a solver
	// or a queue slot — strictly more information than a 429 at the
	// same cost.
	DegradedDefault bool
	// MaxBody bounds a /solve request body in bytes; oversized bodies
	// are rejected with HTTP 413. Default 16 MiB.
	MaxBody int64
	// Faults, when non-nil, arms the fault-injection harness's hook
	// points (construction, solve, handler) — a test and chaos-drill
	// seam. Nil, the default, costs one pointer compare per site.
	Faults *faultinject.Injector
	// PlanCache, when non-nil, is the on-disk spill store for
	// constructed leg plans (plancache.Store). Evicted entries spill
	// their plans before leaving, Snapshot spills the whole cache (the
	// drain hook), and every solver construction first tries to seed
	// its empty plans from the store — a build whose every distinct leg
	// was found counts as a rehydrate, not a construction. Because the
	// store is keyed by platform.LegKey, distinct platforms sharing leg
	// shapes share spilled plans. Nil disables spilling entirely.
	PlanCache *plancache.Store
}

// Service answers scheduling queries from an LRU cache of warmed
// solvers keyed by the canonical platform fingerprint. It is safe for
// concurrent use.
type Service struct {
	cfg   Config
	adm   *admission // worker slots + bounded queue + load shedder
	cm    *costModel // per-kind cold/warm cost EWMAs feeding the shedder
	start time.Time
	m     *metrics

	// draining flips once graceful shutdown begins; the readiness probe
	// reports 503 so load balancers stop routing here.
	draining atomic.Bool

	mu       sync.Mutex
	entries  map[ckey]*list.Element // -> *entry in lru
	lru      *list.List             // front = most recently used
	flight   map[flightKey]*call    // identical in-flight queries
	building map[ckey]*construction // in-flight solver builds
	// forms indexes the cached entries' registered request forms by
	// the maphash of their platform bytes (see form).
	forms    map[uint64]*entry
	formSeed maphash.Seed

	slowMu sync.Mutex // serialises slow-query log lines

	// testHookBuild, when non-nil, runs at the start of every solver
	// construction. It is a test seam: holding the hook open keeps the
	// construction in flight so coalescing can be asserted
	// deterministically. Set it before serving traffic.
	testHookBuild func()
}

// New returns an empty service with the given configuration.
func New(cfg Config) *Service {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 1 << 20
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = os.Stderr
	}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 16 * cfg.Workers
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = maxRequestBytes
	}
	s := &Service{
		cfg:      cfg,
		start:    time.Now(),
		entries:  make(map[ckey]*list.Element),
		lru:      list.New(),
		flight:   make(map[flightKey]*call),
		building: make(map[ckey]*construction),
		forms:    make(map[uint64]*entry),
		formSeed: maphash.MakeSeed(),
	}
	s.m = newMetrics(s)
	s.adm = newAdmission(cfg.Workers, warmReserve(cfg.Workers, cfg.WarmSlots),
		cfg.QueueMax, cfg.ShedBudget, s.m.sheds)
	s.cm = newCostModel()
	return s
}

// SetDraining marks (or clears) the service as draining: the readiness
// probe answers 503 so load balancers stop routing, while everything
// already in flight keeps being served. msserve sets it the moment
// shutdown begins.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining marked the service.
func (s *Service) Draining() bool { return s.draining.Load() }

// Metrics returns the service's metric registry — the source of truth
// behind GET /metrics and the counter half of Stats.
func (s *Service) Metrics() *obs.Registry { return s.m.reg }

// uptime is the time since New.
func (s *Service) uptime() time.Duration { return time.Since(s.start) }

// ckey is the cache key: the canonical fingerprint plus the kind of
// the platform's solver form (see solverForm). The kind matters
// because a chain and its one-leg spider share a fingerprint by design
// but are answered by different engines whose optimal schedules — and
// wire envelopes — legitimately differ; forks normalise to the spider
// kind, so a fork and its spider form still share one warmed solver.
type ckey struct {
	kind string // "chain" | "spider" | "tree"
	hash platform.Hash
}

// SetBuildHookForTest installs a hook run at the start of every solver
// construction. It is a test seam — holding the hook open keeps a
// construction in flight so coalescing can be asserted
// deterministically — and must be set before the service takes traffic.
func (s *Service) SetBuildHookForTest(hook func()) { s.testHookBuild = hook }

// Stats returns a snapshot of the aggregate counters, read back from
// the metric registry (the counters' single home since /metrics
// landed).
func (s *Service) Stats() Stats {
	st := Stats{
		Hits:          uint64(s.m.hits.Value()),
		Misses:        uint64(s.m.misses.Value()),
		Coalesced:     uint64(s.m.coalesced.Value()),
		MemoHits:      uint64(s.m.memoHits.Value()),
		Constructions: uint64(s.m.constructions.Value()),
		Evictions:     uint64(s.m.evictions.Value()),
		Sheds:         uint64(s.m.sheds.Value()),
		Degraded: uint64(s.m.degradedShed.Value()) +
			uint64(s.m.degradedTimeout.Value()) + uint64(s.m.degradedCancel.Value()),
		Timeouts:       uint64(s.m.timeouts.Value()),
		Cancellations:  uint64(s.m.cancellations.Value()),
		Quarantines:    uint64(s.m.quarantines.Value()),
		Spills:         uint64(s.m.spills.Value()),
		SpilledLegs:    uint64(s.m.spilledLegs.Value()),
		Rehydrates:     uint64(s.m.rehydrates.Value()),
		RehydratedLegs: uint64(s.m.rehydratedLegs.Value()),
		QueueDepth:     s.adm.depth(),
		WarmQueueDepth: s.adm.classDepth(classWarm),
		ColdQueueDepth: s.adm.classDepth(classCold),
		UptimeSeconds:  s.uptime().Seconds(),
	}
	s.mu.Lock()
	st.Entries = s.lru.Len()
	s.mu.Unlock()
	return st
}

// ErrInternal marks errors that are the service's fault — recovered
// panics, violated invariants — as opposed to request validation
// failures. The HTTP layer maps it to a 5xx; everything else is a 4xx.
var ErrInternal = errors.New("service: internal error")

// call is one in-flight query; identical queries wait on done and share
// the result.
type call struct {
	done chan struct{}
	resp *Response
	err  error
}

// construction is one in-flight solver build; queries for the same
// platform fingerprint wait on done and share the entry.
type construction struct {
	done chan struct{}
	e    *entry
	err  error
}

// entry is one warmed solver: the solve.Solver built for the platform
// (in first-seen numbering). Solvers are not safe for concurrent use,
// so answers serialise on mu. memo caches the scalar result of every
// query already answered by this solver, so an exact repeat skips even
// the warm binary search.
//
// trace is the entry's phase trace, attached at construction; lastSnap
// and lastStats are the previous read points, so each solve's cost
// block carries exactly its own delta (the entry mutex serialises the
// read-modify-write). The first solve after construction inherits the
// construction-time flushes — a cold query's cost shows the build it
// paid for.
type entry struct {
	key       ckey
	mu        sync.Mutex
	solver    solve.Solver
	memo      map[memoKey]memoVal
	trace     *obs.SolveTrace
	lastSnap  obs.PhaseSnapshot
	lastStats spider.ProbeStats
	// src is the constructing query's prepared platform, whose slices
	// the solver holds; a form with the same literal digest shares
	// them instead of keeping a second copy.
	src prepared
	// form is the request form registered on this entry, nil until a
	// fully parsed query hits it; guarded by Service.mu.
	form *form
}

// memoKey identifies one scalar query against a warmed solver. The
// deadline is normalised to 0 for ops that ignore it, so min-makespan
// repeats memo-hit whatever junk deadline the request carried.
type memoKey struct {
	op       Op
	n        int
	deadline platform.Time
}

// memoVal is the memoised scalar answer. Schedules are never memoised —
// they are large, leg-order-specific, and the warm solve that produces
// them is already the cheap path — so a memo entry fully determines the
// scalar response.
type memoVal struct {
	tasks    int
	makespan platform.Time
}

// memoCap bounds one entry's memo. On overflow the memo is reset rather
// than evicted piecewise: repeats dominate real traffic far below the
// cap, and a reset only costs re-solving warm queries once.
const memoCap = 1 << 12

// memoKeyFor returns the memo key for the query and whether the query
// is memoisable (scalar-only responses of any op).
func memoKeyFor(q *query) (memoKey, bool) {
	if q.req.IncludeSchedule {
		return memoKey{}, false
	}
	k := memoKey{op: q.req.Op, n: q.req.N}
	if q.req.Op.needsDeadline() {
		k.deadline = q.req.Deadline
	}
	return k, true
}

// prepared is what parsing derives from the platform bytes alone: the
// cache key, the literal digest, the platform in its solver form and
// the requester's numbering, and its size.
type prepared struct {
	key  ckey           // cache key: solver kind (forks → spider) + fingerprint
	lit  platform.Hash  // literal digest, the flight key's platform part
	p    solve.Platform // solver form (see solverForm), request order
	size int            // platform leg count, the cold-cost size proxy
}

// form is one registered request form: the exact platform bytes of a
// query that hit a cached entry, remembered by digest, with the
// prepared platform they parse to. A later query whose platform bytes
// have the same maphash AND the same SHA-256 takes the prepared
// platform instead of decoding, fingerprinting and digesting the body
// again — the same trust the SHA-256 cache key already places in
// fingerprint equality. No request body is kept.
type form struct {
	hash uint64
	sum  [sha256.Size]byte
	p    prepared
	// steady is the platform's steady-state rate and best solo time,
	// computed by the first degraded answer that needs them.
	steady steadyState
}

// steadyState caches a platform's SteadyState: exact rational
// arithmetic over every leg, too costly to repeat on every shed.
type steadyState struct {
	once sync.Once
	rate *big.Rat
	solo platform.Time
	err  error
}

func (st *steadyState) get(p solve.Platform) (*big.Rat, platform.Time, error) {
	st.once.Do(func() { st.rate, st.solo, st.err = p.SteadyState() })
	return st.rate, st.solo, st.err
}

// query is a parsed, validated request.
type query struct {
	prepared
	req    *Request
	ctx    context.Context // request context: deadline + disconnect
	body   uint64          // maphash of the platform bytes
	form   *form           // the registered form prepared came from, if any
	flight flightKey
	// retried marks that this query already re-entered the cache path
	// once after inheriting a dead leader's context error, so a second
	// inherited failure is returned as-is.
	retried bool
}

// flightKey identifies identical in-flight queries. Unlike the cache
// key, its platform part is NOT order-normalised: it is the literal
// digest, so coalesced requests share leg numbering and the pre-built
// response — including its schedule — is correct for every joiner
// verbatim.
type flightKey struct {
	lit      platform.Hash
	kind     string
	op       Op
	n        int
	deadline platform.Time
	sched    bool
	// degraded is the allow_degraded tri-state (0 unset, 1 false, 2
	// true): coalesced joiners share the leader's response verbatim,
	// and a degraded 200 is only correct for joiners with the same
	// degradation contract.
	degraded int8
}

// parse decodes and validates the request. A platform whose exact bytes
// match a registered form skips the decode, fingerprint and literal
// digest; everything that depends on the rest of the request — the
// horizon check for its n, the op, n and deadline checks — runs either
// way, so both paths accept, reject and key a query identically.
func (s *Service) parse(req *Request) (*query, error) {
	if !req.Op.valid() {
		return nil, fmt.Errorf("service: unknown op %q (want %s, %s or %s)", req.Op, OpMinMakespan, OpMaxTasks, OpScheduleWithin)
	}
	if len(req.Platform) == 0 {
		return nil, fmt.Errorf("service: request carries no platform")
	}
	q := &query{req: req, body: maphash.Bytes(s.formSeed, req.Platform)}
	if !s.reuseForm(q) {
		dec, err := platform.Decode(req.Platform)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		q.p, q.lit, q.size = solverForm(dec)
		q.key = ckey{kind: q.p.Kind(), hash: dec.Hash()}
	}
	if err := q.p.CheckHorizon(max(req.N, 1)); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	switch {
	case req.Op == OpMinMakespan && req.N < 1:
		return nil, fmt.Errorf("service: %s needs n >= 1, got %d", req.Op, req.N)
	case req.N < 0:
		return nil, fmt.Errorf("service: negative task count %d", req.N)
	case req.Op.needsDeadline() && req.Deadline < 0:
		return nil, fmt.Errorf("service: %s needs a non-negative deadline, got %d", req.Op, req.Deadline)
	case req.N > s.cfg.MaxN:
		return nil, fmt.Errorf("service: task count %d exceeds the per-query limit %d", req.N, s.cfg.MaxN)
	}
	q.flight = flightKey{lit: q.lit, kind: q.key.kind, op: req.Op, n: req.N,
		deadline: req.Deadline, sched: req.IncludeSchedule}
	if req.AllowDegraded != nil {
		q.flight.degraded = 1
		if *req.AllowDegraded {
			q.flight.degraded = 2
		}
	}
	return q, nil
}

// reuseForm fills q's prepared platform from the form registered under
// its body's maphash when the body's SHA-256 matches the form's, and
// reports whether it did. The digest runs only when a candidate exists,
// so traffic without registered forms pays one maphash.
func (s *Service) reuseForm(q *query) bool {
	s.mu.Lock()
	var f *form
	if e := s.forms[q.body]; e != nil {
		f = e.form
	}
	s.mu.Unlock()
	if f == nil || sha256.Sum256(q.req.Platform) != f.sum {
		return false
	}
	q.prepared, q.form = f.p, f
	s.m.formHits.Inc()
	return true
}

// registerForm registers q's platform bytes as e's form. It runs after
// a fully parsed query hit e, outside s.mu for the digest, and gives up
// if e has meanwhile gained a form or left the cache, or if another
// entry holds the maphash slot.
func (s *Service) registerForm(e *entry, q *query) {
	f := &form{hash: q.body, sum: sha256.Sum256(q.req.Platform), p: q.prepared}
	if f.p.lit == e.src.lit {
		f.p.p = e.src.p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[e.key]; !ok || el.Value.(*entry) != e || e.form != nil || s.forms[f.hash] != nil {
		return
	}
	e.form = f
	s.forms[f.hash] = e
}

// dropForm removes e's form registration; s.mu must be held.
func (s *Service) dropForm(e *entry) {
	if e.form != nil && s.forms[e.form.hash] == e {
		delete(s.forms, e.form.hash)
	}
}

// solveDeadline is the effective per-request solve deadline: the
// tighter of the configured SolveTimeout and the request's own
// timeout_ms. Zero means none.
func (s *Service) solveDeadline(req *Request) time.Duration {
	d := s.cfg.SolveTimeout
	if req.TimeoutMs > 0 {
		if rd := time.Duration(req.TimeoutMs) * time.Millisecond; d == 0 || rd < d {
			d = rd
		}
	}
	return d
}

// Solve answers one query, coalescing with identical in-flight queries
// and reusing (or constructing) the warmed solver for the platform.
// The context carries the caller's cancellation (an HTTP client
// disconnect, the drain deadline) and is tightened by the configured
// solve timeout; a dead context stops the solver at its cooperative
// checkpoints and surfaces as the context's error. nil is accepted and
// means context.Background().
func (s *Service) Solve(ctx context.Context, req *Request) (resp *Response, err error) {
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)
	if ctx == nil {
		ctx = context.Background()
	}
	if d := s.solveDeadline(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// Outcome classification happens once, here, whatever path produced
	// the error: the counters are the /metrics taxonomy (timeout vs
	// cancellation), and coalesced joiners inheriting a leader's fate
	// count too — the client saw the failure either way.
	defer func() {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.m.timeouts.Inc()
		case errors.Is(err, context.Canceled):
			s.m.cancellations.Inc()
		}
	}()
	q, err := s.parse(req)
	if err != nil {
		return nil, err
	}
	q.ctx = ctx
	// Degraded conversion runs on every exit below — leader and joiner
	// alike — AFTER the flight defer has published the raw outcome
	// (defers are LIFO): joiners sharing a failed flight convert their
	// own copy, under their own (identical, by flight key) contract. It
	// runs BEFORE the outcome classifier above, which then sees nil and
	// leaves the per-reason counting to degrade.
	defer func() {
		if err == nil {
			return
		}
		if d, ok := s.degrade(q, err); ok {
			resp, err = d, nil
		}
	}()

	s.mu.Lock()
	if c, ok := s.flight[q.flight]; ok {
		// An identical query is already solving: join it. Joiners wait
		// on their own context — a leader stuck in a long solve must not
		// pin a joiner past its deadline.
		s.m.coalesced.Inc()
		s.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if c.err != nil {
			return nil, c.err
		}
		joined := *c.resp
		joined.Meta.Coalesced = true
		return &joined, nil
	}
	c := &call{done: make(chan struct{})}
	s.flight[q.flight] = c
	// Resolve the flight on every exit — panics included: a leaked
	// flight entry would block all future identical queries forever.
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("%w: %v", ErrInternal, r)
		}
		s.mu.Lock()
		delete(s.flight, q.flight)
		s.mu.Unlock()
		c.resp, c.err = resp, err
		close(c.done)
	}()
	return s.solveLeading(q)
}

// solveLeading runs the query that owns the flight slot. It is entered
// with s.mu held and returns with it released.
func (s *Service) solveLeading(q *query) (*Response, error) {
	var e *entry
	cache := "miss"
	// admitWaived marks that this very request just paid cold-class
	// admission for the construction; its first solve is admitted
	// without a second shed decision (it still waits its slot turn).
	admitWaived := false
	if el, ok := s.entries[q.key]; ok {
		s.lru.MoveToFront(el)
		e = el.Value.(*entry)
		s.m.hits.Inc()
		cache = "hit"
		register := e.form == nil && q.form == nil
		s.mu.Unlock()
		if register {
			s.registerForm(e, q)
		}
	} else if b, ok := s.building[q.key]; ok {
		// A different query is already building this platform's
		// solver: wait for it rather than constructing twice — on our
		// own context, so a stuck build cannot pin us past our deadline.
		s.m.misses.Inc()
		s.mu.Unlock()
		select {
		case <-b.done:
		case <-q.ctx.Done():
			return nil, q.ctx.Err()
		}
		if b.err != nil {
			// A leader dying of ITS deadline (or client disconnect) is
			// not this query's failure: re-enter the cache path once —
			// the building slot is gone, so this query reconstructs
			// under its own, still-live context.
			if !q.retried && q.ctx.Err() == nil &&
				(errors.Is(b.err, context.Canceled) || errors.Is(b.err, context.DeadlineExceeded)) {
				q.retried = true
				s.mu.Lock()
				return s.solveLeading(q)
			}
			return nil, b.err
		}
		e = b.e
	} else {
		b := &construction{done: make(chan struct{})}
		s.building[q.key] = b
		s.m.misses.Inc()
		s.mu.Unlock()
		b.e, b.err = s.construct(q)
		s.mu.Lock()
		delete(s.building, q.key)
		s.mu.Unlock()
		close(b.done)
		if b.err != nil {
			return nil, b.err
		}
		e = b.e
		admitWaived = true
	}

	// Entry mutex BEFORE the worker slot: same-entry queries serialise
	// on e.mu anyway, and taking a slot first would let them pin every
	// slot while waiting their turn, starving other platforms. No
	// deadlock: slot holders never wait on an entry mutex. An exact
	// repeat of a scalar query resolves from the memo inside the entry
	// mutex alone — no worker slot, no admission, no solve.
	var solveNs int64
	var cost *Cost
	var phaseDelta obs.PhaseSnapshot
	memoK, memoable := memoKeyFor(q)
	memoHit := false
	sol, err := func() (sol *solved, err error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if memoable {
			if v, ok := e.memo[memoK]; ok {
				memoHit = true
				cost = &Cost{}
				return &solved{tasks: v.tasks, makespan: v.makespan}, nil
			}
		}
		release, admErr := s.adm.admit(q.ctx, s.cm.predict(q.key.kind, false, q.size), classWarm, admitWaived)
		if admErr != nil {
			return nil, admErr
		}
		defer release()
		// Panic quarantine: a panicking solve poisons the warmed entry —
		// its internal state is mid-unwind garbage — so the entry is
		// evicted and the next query reconstructs fresh, instead of every
		// future (and coalesced) query re-hitting the same panic. A
		// cancellation-checkpoint unwind is NOT poison: it is the
		// solver's own orderly exit and must never quarantine.
		defer func() {
			if r := recover(); r != nil {
				if ce, ok := obs.Canceled(r); ok {
					err = ce
					return
				}
				s.quarantine(e)
				err = fmt.Errorf("%w: solving: %v", ErrInternal, r)
			}
		}()
		if ferr := s.cfg.Faults.Fire(q.ctx, faultinject.SiteSolve); ferr != nil {
			return nil, ferr
		}
		// The checkpoint is attached for exactly this answer and
		// detached before the entry lock releases; hits count into the
		// cancel-checkpoint metric — the proof a dead request actually
		// stopped the solver.
		cc := obs.NewCancelCheck(q.ctx, s.m.cancelHits)
		e.solver.SetCancel(cc)
		defer e.solver.SetCancel(nil)
		start := time.Now()
		sol, err = answer(e.solver, q)
		solveNs = time.Since(start).Nanoseconds()
		if err == nil {
			s.cm.observe(q.key.kind, false, solveNs)
		}
		// The entry's cost delta — still under e.mu, so the
		// read-modify-write of the last read points is exclusive.
		snap := e.trace.Snapshot()
		phaseDelta = snap.Sub(e.lastSnap)
		e.lastSnap = snap
		pst := e.solver.Stats()
		cost = &Cost{
			Probes:      pst.Probes - e.lastStats.Probes,
			PackProbes:  pst.PackProbes - e.lastStats.PackProbes,
			Offered:     pst.Offered - e.lastStats.Offered,
			Constructed: pst.Constructed - e.lastStats.Constructed,
			PhaseNs:     phaseDelta.Map(),
		}
		e.lastStats = pst
		if err == nil && memoable {
			if e.memo == nil {
				e.memo = make(map[memoKey]memoVal)
			} else if len(e.memo) >= memoCap {
				clear(e.memo)
			}
			e.memo[memoK] = memoVal{tasks: sol.tasks, makespan: sol.makespan}
		}
		return sol, err
	}()
	if err != nil {
		return nil, err
	}
	kind := q.key.kind
	if memoHit {
		s.m.memoHits.Inc()
	} else {
		s.m.solveHist(kind, q.req.Op, cache).Observe(solveNs)
		for _, p := range obs.Phases() {
			if ns := phaseDelta.Ns[p]; ns > 0 {
				s.m.phaseCounter(kind, p).Add(ns)
			}
		}
	}
	resp := s.respond(q, sol, cache, solveNs)
	resp.Meta.Memo = memoHit
	resp.Meta.Cost = cost
	if s.cfg.SlowQuery > 0 && time.Duration(solveNs) >= s.cfg.SlowQuery {
		s.m.slowQueries.Inc()
		s.logSlow(q, resp)
	}
	return resp, nil
}

// logSlow writes one slow-query line. Every number repeats the
// response's own meta — the log line and the cost block the client saw
// must agree, so an operator can join them.
func (s *Service) logSlow(q *query, resp *Response) {
	c := resp.Meta.Cost
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintf(s.cfg.SlowLog,
		"service: slow query kind=%s op=%s n=%d deadline=%d cache=%s memo=%t platform=%s solve_ns=%d probes=%d pack_probes=%d offered=%d constructed=%d phase_ns=%s\n",
		q.key.kind, q.req.Op, q.req.N, q.req.Deadline, resp.Meta.Cache, resp.Meta.Memo,
		resp.Meta.PlatformHash, resp.Meta.SolveNs,
		c.Probes, c.PackProbes, c.Offered, c.Constructed, formatPhases(c.PhaseNs))
}

// quarantine evicts a poisoned entry: after a solve panic the warmed
// solver's internal state is untrustworthy, so the entry leaves the
// cache (if it is still the cached one — an eviction or a fresher
// build may have displaced it) and the next query reconstructs fresh.
// Callers may hold e.mu; nothing takes e.mu under s.mu, so the order
// here (s.mu inside e.mu) cannot invert anywhere.
func (s *Service) quarantine(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.quarantines.Inc()
	if el, ok := s.entries[e.key]; ok && el.Value.(*entry) == e {
		s.lru.Remove(el)
		delete(s.entries, e.key)
		s.dropForm(e)
	}
}

// construct builds the warmed solver for the query's platform under a
// cold-class admission slot and inserts it into the LRU, evicting
// beyond capacity. Constructions are serialised per cache key by the
// building map, so the insert never races another construction of the
// same key. Panics out of the solver constructors are converted to
// errors here — and counted as quarantines: the build is poisoned
// exactly like a panicking solve, it just was never cached — so the
// waiting builds resolve with the error exactly once each.
func (s *Service) construct(q *query) (e *entry, err error) {
	release, admErr := s.adm.admit(q.ctx, s.cm.predict(q.key.kind, true, q.size), classCold, false)
	if admErr != nil {
		return nil, admErr
	}
	defer func() {
		release()
		if r := recover(); r != nil {
			s.m.quarantines.Inc()
			e, err = nil, fmt.Errorf("%w: constructing solver: %v", ErrInternal, r)
		}
	}()
	if hook := s.testHookBuild; hook != nil {
		hook()
	}
	start := time.Now()
	// The checkpoint proves a cancelled construction stopped HERE: the
	// fault site's delay observes the context, and the poll after it
	// trips the checkpoint-hit counter before any solver work runs.
	cc := obs.NewCancelCheck(q.ctx, s.m.cancelHits)
	if ferr := s.cfg.Faults.Fire(q.ctx, faultinject.SiteConstruct); ferr != nil {
		if cerr := cc.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, ferr
	}
	if cerr := cc.Err(); cerr != nil {
		return nil, cerr
	}
	sv, err := solve.New(q.p)
	if err != nil {
		return nil, err
	}
	// Rehydrate before first use: seed the fresh solver's empty leg
	// plans from the spill store. A build whose EVERY distinct plan was
	// seeded did no construction work — it counts as a rehydrate; a
	// partial seed (some legs found, some not) still counts as a
	// construction, with the seeded legs on their own counter.
	rehydrated := false
	if s.cfg.PlanCache != nil {
		res := sv.Rehydrate(s.planLookup)
		if res.Hydrated > 0 {
			s.m.rehydratedLegs.Add(int64(res.Hydrated))
		}
		if res.Failed > 0 {
			s.m.rehydrateErrors.Add(int64(res.Failed))
		}
		rehydrated = res.Plans > 0 && res.Hydrated == res.Plans
	}
	s.cm.observe(q.key.kind, true, time.Since(start).Nanoseconds())
	e = &entry{key: q.key, solver: sv, trace: &obs.SolveTrace{}, src: q.prepared}
	// Attaching right after construction flushes the build-time set-up
	// (leg dedup, tree cover) into the trace, so the first solve's cost
	// block carries the construction it paid for.
	sv.SetTrace(e.trace)
	// Rehydrated placements were not built by the first query — baseline
	// the entry's cost telemetry past them so its cost block reports
	// only work it actually ran.
	if rehydrated {
		e.lastStats = sv.Stats()
	}
	s.mu.Lock()
	if rehydrated {
		s.m.rehydrates.Inc()
	} else {
		s.m.constructions.Inc()
	}
	s.entries[q.key] = s.lru.PushFront(e)
	var evicted []*entry
	for s.lru.Len() > s.cfg.CacheSize {
		old := s.lru.Back()
		s.lru.Remove(old)
		oe := old.Value.(*entry)
		delete(s.entries, oe.key)
		s.dropForm(oe)
		s.m.evictions.Inc()
		evicted = append(evicted, oe)
	}
	s.mu.Unlock()
	// Spill outside s.mu: the spill takes each evicted entry's own mutex
	// (it may still be answering a query) and writes to disk — neither
	// belongs under the cache lock.
	for _, oe := range evicted {
		s.spill(oe)
	}
	return e, nil
}

// planLookup is the rehydrate side of the plan cache: fetch one leg's
// spilled backward sequence, mapping every disk-level failure —
// including a corrupt file — to "not found" so the query falls back to
// fresh construction instead of failing.
func (s *Service) planLookup(key string) []sched.ChainTask {
	tasks, err := s.cfg.PlanCache.Get(key)
	if err != nil {
		s.m.rehydrateErrors.Inc()
		s.logPlanCache(err)
		return nil
	}
	return tasks
}

// logPlanCache writes one plan-cache failure line to the service log
// (SlowLog doubles as the service's operational log writer).
func (s *Service) logPlanCache(err error) {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintf(s.cfg.SlowLog, "service: plan cache: %v\n", err)
}

// spill writes one entry's constructed leg plans to the plan cache,
// under the entry's own mutex so an in-flight solve cannot grow the
// plans mid-serialisation. Spill failures are counted and logged, never
// propagated: losing a spill costs a future reconstruction, nothing
// more.
func (s *Service) spill(e *entry) (legs int) {
	if s.cfg.PlanCache == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	exports := e.solver.ExportPlans()
	if len(exports) == 0 {
		return 0
	}
	for _, pe := range exports {
		if _, err := s.cfg.PlanCache.Put(pe.Key, pe.Backward); err != nil {
			s.m.spillErrors.Inc()
			s.logPlanCache(err)
			continue
		}
		legs++
	}
	s.m.spills.Inc()
	s.m.spilledLegs.Add(int64(legs))
	return legs
}

// Snapshot spills every cached entry's constructed plans to the plan
// cache — the graceful-shutdown hook: msserve calls it after the drain,
// so a restarted shard rehydrates its whole warm set. It returns how
// many entries and distinct leg plans were written. Without a plan
// cache it is a no-op.
func (s *Service) Snapshot() (entries, legs int) {
	if s.cfg.PlanCache == nil {
		return 0, 0
	}
	s.mu.Lock()
	all := make([]*entry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*entry))
	}
	s.mu.Unlock()
	for _, e := range all {
		if n := s.spill(e); n > 0 {
			entries++
			legs += n
		}
	}
	return entries, legs
}

// solved is the raw answer of one solve, before wire encoding; sched
// is nil unless the request asked for the schedule.
type solved struct {
	tasks    int
	makespan platform.Time
	sched    solve.Schedule
}

// remapLegs rewrites a schedule produced on the cached spider (first-
// seen leg order) onto the request's leg order. Legs are matched by
// equal (c, w) sequences; both orders carry the same multiset of legs —
// they share a canonical fingerprint — so a perfect matching exists,
// and identical legs are interchangeable: every task keeps its in-leg
// trajectory and master port slot, so feasibility and makespan carry
// over verbatim. Both orders are sorted by leg value, ties by index,
// and matched rank for rank: the k-th copy of a leg in the cached
// order maps to its k-th copy in the request's order.
func remapLegs(sch *sched.SpiderSchedule, from, to platform.Spider) error {
	identity := len(from.Legs) == len(to.Legs)
	for i := 0; identity && i < len(from.Legs); i++ {
		identity = slices.Equal(from.Legs[i].Nodes, to.Legs[i].Nodes)
	}
	if identity {
		sch.Spider = to
		return nil
	}
	if len(from.Legs) != len(to.Legs) {
		return fmt.Errorf("%w: requested spider has %d legs, cached %d", ErrInternal, len(to.Legs), len(from.Legs))
	}
	fromOrd, toOrd := legOrder(from), legOrder(to)
	perm := make([]int, len(from.Legs))
	for k, i := range fromOrd {
		j := toOrd[k]
		if !slices.Equal(from.Legs[i].Nodes, to.Legs[j].Nodes) {
			return fmt.Errorf("%w: no leg of the requested spider matches cached leg %d", ErrInternal, i)
		}
		perm[i] = j
	}
	sch.Spider = to
	for t := range sch.Tasks {
		sch.Tasks[t].Leg = perm[sch.Tasks[t].Leg]
	}
	return nil
}

// legOrder returns the spider's leg indices sorted by leg value, ties
// by index.
func legOrder(sp platform.Spider) []int {
	ord := make([]int, len(sp.Legs))
	for i := range ord {
		ord[i] = i
	}
	slices.SortStableFunc(ord, func(i, j int) int { return platform.CompareLegs(sp.Legs[i], sp.Legs[j]) })
	return ord
}

// respond encodes the solved answer onto the wire.
func (s *Service) respond(q *query, sol *solved, cache string, solveNs int64) *Response {
	resp := &Response{
		Op:       q.req.Op,
		N:        q.req.N,
		Tasks:    sol.tasks,
		Makespan: sol.makespan,
		Meta: Meta{
			PlatformHash: q.key.hash.String(),
			Cache:        cache,
			SolveNs:      solveNs,
		},
	}
	if q.req.Op.needsDeadline() {
		resp.Deadline = q.req.Deadline
	}
	switch v := sol.sched.(type) {
	case *sched.ChainSchedule:
		resp.Schedule = sched.AppendChainSchedule(nil, v)
	case *sched.SpiderSchedule:
		resp.Schedule = sched.AppendSpiderSchedule(nil, v)
	}
	return resp
}
