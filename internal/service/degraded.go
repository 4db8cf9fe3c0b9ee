package service

import (
	"context"
	"errors"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
)

// This file is the graceful-degradation seam: the conversion of a shed,
// timed-out or cancelled query into a bounded-quality 200. The
// principle is that an error path which could state a proven bound for
// free should state it — a 429 and the O(legs) steady-state lower bound
// cost the same to produce, but the bound lets a capacity planner keep
// working through the overload while exact answers queue.
//
// Soundness contract: every degraded Makespan is a proven LOWER bound
// on the optimal makespan, every degraded Tasks a proven UPPER bound on
// the achievable count, and a bracket's hi was proved feasible by an
// actual probe before the search was interrupted. A degraded response
// never fabricates a schedule — schedule-bearing queries do not degrade.

// degrade converts an eligible failure into a degraded response.
// It reports false — leave the error alone — for non-failure errors
// (validation, internal), schedule-bearing queries, and queries whose
// degradation contract (allow_degraded, server default) says no.
//
// Shed conversions are deliberately solver-free: the bound comes from
// the platform value parsed out of the request itself, so a shed query
// still touches no cache entry, constructs nothing and holds no queue
// slot — the whole point of shedding it. Timeout/cancel conversions
// additionally tighten the platform bound with the interrupted search's
// own best-so-far bracket when the unwind carried one (*core.PartialError).
func (s *Service) degrade(q *query, cause error) (*Response, bool) {
	var oe *OverloadError
	isShed := errors.As(cause, &oe)
	isTimeout := !isShed && errors.Is(cause, context.DeadlineExceeded)
	isCancel := !isShed && !isTimeout && errors.Is(cause, context.Canceled)
	if !isShed && !isTimeout && !isCancel {
		return nil, false
	}
	if q.req.Op == OpScheduleWithin || q.req.IncludeSchedule {
		return nil, false
	}
	if isShed {
		if q.req.AllowDegraded != nil && !*q.req.AllowDegraded {
			return nil, false
		}
	} else {
		allow := s.cfg.DegradedDefault
		if q.req.AllowDegraded != nil {
			allow = *q.req.AllowDegraded
		}
		if !allow {
			return nil, false
		}
	}
	resp := &Response{
		Op:       q.req.Op,
		N:        q.req.N,
		Degraded: true,
		Meta:     Meta{PlatformHash: q.key.hash.String(), Cache: "degraded"},
	}
	if q.req.Op.needsDeadline() {
		resp.Deadline = q.req.Deadline
	}
	rate, solo, err := q.steadyState()
	if err != nil {
		return nil, false
	}
	switch q.req.Op {
	case OpMinMakespan:
		resp.Makespan, resp.Bound = platform.SteadyStateBound(q.req.N, rate, solo), BoundLower
		var pe *core.PartialError
		if errors.As(cause, &pe) {
			// The interrupted search's own lower bound can only tighten
			// the platform bound (it has run real probes); take the max.
			// Its hi is a feasible deadline — a true upper bound — so with
			// one the answer upgrades from a bound to a bracket.
			if pe.Partial.Lo > resp.Makespan {
				resp.Makespan = pe.Partial.Lo
			}
			if pe.Partial.Feasible && pe.Partial.Hi >= resp.Makespan {
				resp.Bound = BoundBracket
				resp.Bracket = []platform.Time{resp.Makespan, pe.Partial.Hi}
			}
		}
	case OpMaxTasks:
		resp.Tasks, resp.Bound = platform.SteadyStateTasks(q.req.N, q.req.Deadline, rate, solo), BoundUpper
	}
	switch {
	case isShed:
		resp.RetryAfterSeconds = int64((oe.RetryAfter + 500*time.Millisecond) / time.Second)
		s.m.degradedShed.Inc()
	case isTimeout:
		// The outcome classifier in Solve sees a nil error after this
		// conversion; the per-reason counting moves here so the
		// timeout/cancellation taxonomy still sees every failure.
		s.m.timeouts.Inc()
		s.m.degradedTimeout.Inc()
	case isCancel:
		s.m.cancellations.Inc()
		s.m.degradedCancel.Inc()
	}
	return resp, true
}

// steadyState returns the query platform's steady-state rate and best
// solo time, the inputs of its LowerBound and TasksUpperBound: from the
// registered form, computed once per form, when the query came through
// one, else computed for this query.
func (q *query) steadyState() (*big.Rat, platform.Time, error) {
	if q.form != nil {
		return q.form.steady.get(q.p)
	}
	return q.p.SteadyState()
}
