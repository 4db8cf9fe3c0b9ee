package service

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
)

// metrics is the service's registry façade. Every aggregate counter the
// service maintains lives in the obs.Registry — the source of truth
// behind both GET /metrics and Service.Stats — and the pointers are
// resolved once at New so the serving paths never take the registry
// lock. That matters beyond speed: the entries/uptime gauges are
// GaugeFuncs that take s.mu during exposition (registry read lock
// held), so performing a registry lookup while holding s.mu would be a
// lock-order inversion. The per-(kind, op, cache) histograms and
// per-(kind, phase) counters are looked up per solve, which only ever
// happens outside s.mu.
type metrics struct {
	reg *obs.Registry

	hits          *obs.Counter
	misses        *obs.Counter
	coalesced     *obs.Counter
	memoHits      *obs.Counter
	formHits      *obs.Counter
	constructions *obs.Counter
	evictions     *obs.Counter
	slowQueries   *obs.Counter
	inflight      *obs.Gauge

	// Resilience counters: the failure-mode taxonomy of the README's
	// Resilience section, one series each so the e2e can grep them even
	// at zero.
	sheds         *obs.Counter
	timeouts      *obs.Counter
	cancellations *obs.Counter
	quarantines   *obs.Counter
	cancelHits    *obs.Counter

	// Degraded-answer counters, one per conversion reason — the
	// bounded-quality 200s served in place of a 429/504/499.
	degradedShed    *obs.Counter
	degradedTimeout *obs.Counter
	degradedCancel  *obs.Counter

	// Plan-cache counters: the spill/rehydrate traffic of the
	// distributed tier's restart-survival story.
	spills          *obs.Counter
	spilledLegs     *obs.Counter
	spillErrors     *obs.Counter
	rehydrates      *obs.Counter
	rehydratedLegs  *obs.Counter
	rehydrateErrors *obs.Counter

	// series memoises the per-solve histogram and phase-counter
	// lookups: the registry builds and sorts a label key on every
	// lookup, which would otherwise be most of what the request layer
	// allocates per warm solve.
	seriesMu sync.RWMutex
	hists    map[histKey]*obs.Histogram
	phases   map[phaseKey]*obs.Counter
}

type histKey struct {
	kind  string
	op    Op
	cache string
}

type phaseKey struct {
	kind string
	p    obs.Phase
}

func newMetrics(s *Service) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:           r,
		hits:          r.Counter("repro_service_hits_total", "queries answered by an already-warmed solver"),
		misses:        r.Counter("repro_service_misses_total", "queries that found no warmed solver"),
		coalesced:     r.Counter("repro_service_coalesced_total", "queries that joined an identical in-flight query"),
		memoHits:      r.Counter("repro_service_memo_hits_total", "scalar queries answered from a warmed solver's result memo"),
		formHits:      r.Counter("repro_service_form_hits_total", "queries whose platform bytes matched a registered form, skipping the platform decode"),
		constructions: r.Counter("repro_service_constructions_total", "warmed solver builds"),
		evictions:     r.Counter("repro_service_evictions_total", "warmed solvers dropped by the LRU"),
		slowQueries:   r.Counter("repro_service_slow_queries_total", "solves at or above the configured slow-query threshold"),
		inflight:      r.Gauge("repro_service_inflight", "requests currently being answered"),
		sheds:         r.Counter("repro_service_sheds_total", "queries refused by the admission controller (HTTP 429)"),
		timeouts:      r.Counter("repro_service_timeouts_total", "queries that hit their solve deadline"),
		cancellations: r.Counter("repro_service_cancellations_total", "queries whose context was cancelled (client gone, drain)"),
		quarantines:   r.Counter("repro_service_quarantines_total", "poisoned cache entries evicted after a solver panic"),
		cancelHits:    r.Counter("repro_service_cancel_checkpoint_hits_total", "solves stopped at a cooperative cancellation checkpoint"),

		spills:          r.Counter("repro_service_spills_total", "warmed solvers whose leg plans were written to the plan cache (evictions and snapshots)"),
		spilledLegs:     r.Counter("repro_service_spilled_legs_total", "distinct leg plans written to the plan cache"),
		spillErrors:     r.Counter("repro_service_spill_errors_total", "leg plans that failed to write to the plan cache"),
		rehydrates:      r.Counter("repro_service_rehydrates_total", "solver builds fully seeded from the plan cache — zero construction work"),
		rehydratedLegs:  r.Counter("repro_service_rehydrated_legs_total", "distinct leg plans seeded from the plan cache"),
		rehydrateErrors: r.Counter("repro_service_rehydrate_errors_total", "spilled plans rejected at import or unreadable on disk (fell back to construction)"),

		hists:  make(map[histKey]*obs.Histogram),
		phases: make(map[phaseKey]*obs.Counter),
	}
	const degradedHelp = "bounded-quality 200s served in place of an error, by conversion reason"
	m.degradedShed = r.Counter("repro_service_degraded_total", degradedHelp, "reason", "shed")
	m.degradedTimeout = r.Counter("repro_service_degraded_total", degradedHelp, "reason", "timeout")
	m.degradedCancel = r.Counter("repro_service_degraded_total", degradedHelp, "reason", "cancel")
	r.GaugeFunc("repro_service_entries", "warmed solvers currently cached", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.lru.Len())
	})
	r.GaugeFunc("repro_service_uptime_seconds", "seconds since the service started", func() int64 {
		return int64(s.uptime().Seconds())
	})
	// s.adm is wired right after newMetrics returns (it needs the sheds
	// counter); the closures read it per exposition, not at registration.
	r.GaugeFunc("repro_service_queue_depth", "requests waiting in the admission queue", func() int64 {
		if s.adm == nil {
			return 0
		}
		return s.adm.depth()
	})
	const classDepthHelp = "requests waiting in the admission queue, by traffic class"
	r.GaugeFunc("repro_service_queue_class_depth", classDepthHelp, func() int64 {
		if s.adm == nil {
			return 0
		}
		return s.adm.classDepth(classWarm)
	}, "class", "warm")
	r.GaugeFunc("repro_service_queue_class_depth", classDepthHelp, func() int64 {
		if s.adm == nil {
			return 0
		}
		return s.adm.classDepth(classCold)
	}, "class", "cold")
	return m
}

// solveHist returns the solve-duration histogram of one (platform kind,
// op, cache disposition) cell; cache is "hit" (warm) or "miss" (cold).
func (m *metrics) solveHist(kind string, op Op, cache string) *obs.Histogram {
	k := histKey{kind: kind, op: op, cache: cache}
	m.seriesMu.RLock()
	h := m.hists[k]
	m.seriesMu.RUnlock()
	if h == nil {
		h = m.reg.Histogram("repro_solve_duration_ns",
			"wall time of one solve in nanoseconds, by platform kind, op and cache disposition",
			"kind", kind, "op", string(op), "cache", cache)
		m.seriesMu.Lock()
		m.hists[k] = h
		m.seriesMu.Unlock()
	}
	return h
}

// phaseCounter returns the cumulative phase-time counter of one
// (platform kind, solve phase) cell.
func (m *metrics) phaseCounter(kind string, p obs.Phase) *obs.Counter {
	k := phaseKey{kind: kind, p: p}
	m.seriesMu.RLock()
	c := m.phases[k]
	m.seriesMu.RUnlock()
	if c == nil {
		c = m.reg.Counter("repro_solve_phase_ns_total",
			"cumulative solve wall time in nanoseconds, by platform kind and solve phase",
			"kind", kind, "phase", p.String())
		m.seriesMu.Lock()
		m.phases[k] = c
		m.seriesMu.Unlock()
	}
	return c
}

// formatPhases renders a cost block's phase map in canonical phase
// order, for the slow-query log: "construct:123,pack:456". Empty maps
// render as "-".
func formatPhases(phases map[string]int64) string {
	if len(phases) == 0 {
		return "-"
	}
	var sb strings.Builder
	for _, p := range obs.Phases() {
		ns, ok := phases[p.String()]
		if !ok {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%d", p, ns)
	}
	return sb.String()
}
