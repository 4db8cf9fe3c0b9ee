// Package service is the long-lived scheduling service layer: it
// answers (platform, n) queries over HTTP+JSON, backed by an LRU cache
// of warmed solvers keyed by the canonical platform fingerprint
// (platform.Hash) with singleflight coalescing of identical in-flight
// queries.
//
// The warmed solvers come from internal/solve, the kind → engine
// mapping the public facade uses too, and are built for exactly this
// reuse pattern: one cached per-leg backward construction answers every
// (task count, deadline) probe, so the expensive work is paid once per
// platform and amortised across all traffic that follows.
// The service keeps those warmed solvers alive across requests,
// deduplicates concurrent identical queries into a single solve, bounds
// concurrent solver work with a worker cap, and reports cache/coalesce
// metadata per response plus aggregate counters on /metrics.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/solve"
)

// Op names one query kind.
type Op string

const (
	// OpMinMakespan asks for the optimal makespan of exactly N tasks
	// and (optionally) a schedule achieving it. On a tree that is not
	// spider-shaped the answer is the §8 spider cover's feasible
	// makespan, an upper bound on the optimum rather than the optimum.
	OpMinMakespan Op = "min_makespan"
	// OpMaxTasks asks how many of at most N tasks complete within the
	// deadline.
	OpMaxTasks Op = "max_tasks"
	// OpScheduleWithin asks for a schedule of as many tasks as possible
	// — at most N — completing within the deadline.
	OpScheduleWithin Op = "schedule_within"
)

// needsDeadline reports whether the op reads the Deadline field.
func (op Op) needsDeadline() bool { return op != OpMinMakespan }

// valid reports whether the op is one of the three query kinds.
func (op Op) valid() bool {
	switch op {
	case OpMinMakespan, OpMaxTasks, OpScheduleWithin:
		return true
	}
	return false
}

// Request is one /solve query. Platform carries a tagged platform
// envelope in the msgen/msched file format (platform.Read); chains,
// spiders, forks and trees are all accepted.
type Request struct {
	Platform json.RawMessage `json:"platform"`
	Op       Op              `json:"op"`
	N        int             `json:"n"`
	// Deadline is read by max_tasks and schedule_within.
	Deadline platform.Time `json:"deadline,omitempty"`
	// IncludeSchedule asks for the full schedule in the response; by
	// default only makespan/task counts travel, keeping warm-path
	// responses small.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// TimeoutMs, when positive, bounds this query's solve wall time in
	// milliseconds. The server's own solve timeout still applies; the
	// tighter of the two wins. An exceeded deadline answers HTTP 504
	// with the solver stopped at a cancellation checkpoint — unless the
	// request accepts a degraded answer (below).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// AllowDegraded opts this query in (true) or out (false) of
	// bounded-quality degraded answers: a shed, timeout or cancellation
	// then yields HTTP 200 with Degraded set and the best bound the
	// service can state without (or with partial) solving, instead of
	// 429/504/499. Unset defers to the server default: sheds degrade
	// (the O(legs) bound is free — cheaper than the error path),
	// timeouts and cancellations do not (-degraded-default flips that).
	// Schedule-bearing queries (schedule_within, include_schedule)
	// never degrade — there is no partial schedule to return.
	AllowDegraded *bool `json:"allow_degraded,omitempty"`
}

// Meta is the per-response cache/coalesce metadata.
type Meta struct {
	// PlatformHash is the canonical fingerprint the query was keyed by.
	PlatformHash string `json:"platform_hash"`
	// Cache is "hit" when a warmed solver answered, "miss" when this
	// query triggered the solver construction.
	Cache string `json:"cache"`
	// Coalesced is true when this request did not solve anything: it
	// joined an identical in-flight query and shares its result.
	Coalesced bool `json:"coalesced"`
	// Memo is true when the scalar result came from the warmed solver's
	// query memo — an exact repeat answered without re-running the
	// solver at all.
	Memo bool `json:"memo,omitempty"`
	// SolveNs is the wall time of the solve this response came from; 0
	// for memo hits.
	SolveNs int64 `json:"solve_ns"`
	// Cost is the solve-cost breakdown of the solve this response came
	// from: probe counts and per-phase wall time. Memo hits carry an
	// all-zero cost (nothing ran); coalesced joiners share the leading
	// query's cost.
	Cost *Cost `json:"cost,omitempty"`
}

// Cost is the per-response solve-cost metadata: what THIS query spent,
// as deltas of the warmed solver's cumulative telemetry taken under the
// entry lock. The first query after a solver construction includes the
// construction it paid for (leg dedup, tree cover, plan growth).
type Cost struct {
	// Probes counts the deadline-search feasibility probes this query
	// ran (for chains: FitWithin evaluations).
	Probes int `json:"probes"`
	// PackProbes counts the probes that ran packing work — the
	// expensive kind.
	PackProbes int `json:"pack_probes,omitempty"`
	// Offered counts the candidates this query's probes offered to the
	// packer: at most n + legs per packing probe.
	Offered int64 `json:"offered,omitempty"`
	// RewindHits is always 0. It counted probes answered from a decision
	// log the solver no longer keeps, and stays for clients that still
	// read it.
	RewindHits int `json:"rewind_hits,omitempty"`
	// Constructed counts the backward placements built by this query —
	// construction work that warm repeats will reuse.
	Constructed int64 `json:"constructed,omitempty"`
	// PhaseNs is the per-phase wall-time breakdown (construct, dedup,
	// merge, pack, extract), in nanoseconds; zero phases are omitted.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
}

// Response is one /solve answer.
type Response struct {
	Op       Op            `json:"op"`
	N        int           `json:"n"`
	Deadline platform.Time `json:"deadline,omitempty"`
	// Makespan is the optimal makespan (min_makespan) or the makespan
	// of the returned schedule (schedule_within); 0 for max_tasks. On a
	// tree that is not spider-shaped, min_makespan answers the §8 spider
	// cover's feasible makespan: an upper bound on the optimum, which
	// the response does not yet mark.
	Makespan platform.Time `json:"makespan,omitempty"`
	// Tasks is the number of tasks scheduled/counted.
	Tasks int `json:"tasks"`
	// Schedule is a tagged schedule envelope (sched.ReadSchedule
	// decodes it) when IncludeSchedule was set.
	Schedule json.RawMessage `json:"schedule,omitempty"`
	// Degraded marks a bounded-quality answer: the query was shed, timed
	// out or was cancelled, and instead of an error the service returned
	// the best bound it could state. Makespan/Tasks then carry a bound,
	// not the exact answer; Bound says which side.
	Degraded bool `json:"degraded,omitempty"`
	// Bound qualifies a degraded answer: BoundLower (Makespan is a lower
	// bound on the optimal makespan), BoundUpper (Tasks is an upper
	// bound on the achievable count), or BoundBracket (Bracket holds a
	// two-sided makespan bracket from an interrupted binary search).
	Bound string `json:"bound,omitempty"`
	// Bracket is [lo, hi] with lo ≤ exact ≤ hi, present only with
	// Bound == BoundBracket: the interrupted search had already proved a
	// feasible deadline hi. Makespan duplicates lo.
	Bracket []platform.Time `json:"bracket,omitempty"`
	// RetryAfterSeconds, on a degraded shed answer, is the admission
	// controller's backoff hint — when to re-query for the exact answer.
	// It replaces the 429's Retry-After header, which a 200 cannot
	// carry without confusing intermediaries.
	RetryAfterSeconds int64 `json:"retry_after_seconds,omitempty"`
	Meta              Meta  `json:"meta"`
}

// Bound values of a degraded Response.
const (
	// BoundLower: Makespan is a proven lower bound (admission-shed
	// queries get the O(legs) steady-state bound; cancelled solves the
	// best bound the interrupted search had established).
	BoundLower = "lower"
	// BoundUpper: Tasks is a proven upper bound (throughput-capped
	// task count; no schedule achieving it has been constructed).
	BoundUpper = "upper"
	// BoundBracket: Bracket is a two-sided [lo, hi] from an interrupted
	// binary search whose hi was proved feasible.
	BoundBracket = "bracket"
)

// Stats is an in-process snapshot of the aggregate counters, read back
// from the metric registry that GET /metrics exposes.
type Stats struct {
	// Hits counts queries answered by an already-warmed solver.
	Hits uint64 `json:"hits"`
	// Misses counts queries that found no warmed solver.
	Misses uint64 `json:"misses"`
	// Coalesced counts queries that joined an identical in-flight
	// query instead of solving.
	Coalesced uint64 `json:"coalesced"`
	// MemoHits counts scalar queries answered from a warmed solver's
	// result memo — exact repeats that skipped the solve entirely.
	MemoHits uint64 `json:"memo_hits"`
	// Constructions counts actual solver builds; concurrent misses on
	// one platform still construct once.
	Constructions uint64 `json:"constructions"`
	// Evictions counts warmed solvers dropped by the LRU.
	Evictions uint64 `json:"evictions"`
	// Sheds counts queries the admission controller refused — whether
	// the refusal surfaced as a 429 or was converted to a degraded 200.
	Sheds uint64 `json:"sheds"`
	// Degraded counts bounded-quality 200s served in place of an error
	// (shed, timeout and cancellation conversions combined; the
	// per-reason split is on /metrics).
	Degraded uint64 `json:"degraded"`
	// Timeouts counts queries that hit their solve deadline.
	Timeouts uint64 `json:"timeouts"`
	// Cancellations counts queries whose context was cancelled before
	// completion (client disconnect, drain deadline).
	Cancellations uint64 `json:"cancellations"`
	// Quarantines counts poisoned cache entries evicted after a solver
	// panic (a panicking construction counts too).
	Quarantines uint64 `json:"quarantines"`
	// Spills counts warmed solvers whose leg plans were written to the
	// plan cache (LRU evictions and shutdown snapshots); SpilledLegs
	// counts the distinct leg plans written.
	Spills      uint64 `json:"spills,omitempty"`
	SpilledLegs uint64 `json:"spilled_legs,omitempty"`
	// Rehydrates counts solver builds fully seeded from the plan cache —
	// warm-equivalent entries that re-ran zero construction;
	// RehydratedLegs counts the distinct leg plans seeded (partial
	// rehydrations included).
	Rehydrates     uint64 `json:"rehydrates,omitempty"`
	RehydratedLegs uint64 `json:"rehydrated_legs,omitempty"`
	// QueueDepth is the number of requests currently waiting in the
	// admission queue (both classes).
	QueueDepth int64 `json:"queue_depth"`
	// WarmQueueDepth and ColdQueueDepth split QueueDepth by admission
	// class: warm queries have a warmed solver (cache hits), cold ones
	// need a construction.
	WarmQueueDepth int64 `json:"warm_queue_depth"`
	ColdQueueDepth int64 `json:"cold_queue_depth"`
	// Entries is the current number of warmed solvers.
	Entries int `json:"entries"`
	// UptimeSeconds is the time since the service started.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// NewRequest builds a /solve request for any platform kind. A tree's
// responses carry schedules expressed on its §8 covering spider
// (uncovered processors idle), exactly like repro.NewSolver(t).
func NewRequest(p solve.Platform, op Op, n int, deadline platform.Time) (*Request, error) {
	var buf bytes.Buffer
	var err error
	switch v := p.(type) {
	case platform.Chain:
		err = platform.WriteChain(&buf, v)
	case platform.Spider:
		err = platform.WriteSpider(&buf, v)
	case platform.Fork:
		err = platform.WriteFork(&buf, v)
	case platform.Tree:
		err = platform.WriteTree(&buf, v)
	default:
		err = fmt.Errorf("service: unsupported platform type %T", p)
	}
	if err != nil {
		return nil, err
	}
	return &Request{Platform: buf.Bytes(), Op: op, N: n, Deadline: deadline}, nil
}

// DecodeSchedule decodes the response's schedule envelope; it errors
// when the response carries none.
func (r *Response) DecodeSchedule() (sched.DecodedSchedule, error) {
	if len(r.Schedule) == 0 {
		return sched.DecodedSchedule{}, fmt.Errorf("service: response carries no schedule (set include_schedule)")
	}
	return sched.ReadSchedule(bytes.NewReader(r.Schedule))
}
