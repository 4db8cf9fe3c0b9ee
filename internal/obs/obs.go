// Package obs is the repository's dependency-free observability core:
// a metrics registry of atomic counters, gauges and fixed-bucket latency
// histograms with Prometheus text exposition, plus the phase-level
// SolveTrace that the solve-path hooks in core, spider, fork and tree
// feed.
//
// # Design constraints
//
// The package imports only the standard library, so every solver
// package can depend on it without cycles, and the hooks are built to
// cost nothing when unused:
//
//   - every hook is a method on a possibly-nil *SolveTrace; a nil
//     receiver returns immediately, so an uninstrumented solve pays one
//     pointer compare per phase boundary and allocates nothing (the
//     spider package's disabled-hooks test asserts this with
//     testing.AllocsPerRun);
//   - all metric values are atomics — Observe/Inc/Add never take a
//     lock — so traced solves in parallel worker goroutines (the spider
//     solver grows independent leg plans concurrently) record into one
//     trace safely;
//   - registry lookups (Counter, Gauge, Histogram) take a mutex and may
//     allocate, so hot paths fetch their metric once and keep the
//     pointer.
//
// # The phase model
//
// A solve decomposes into the phases of Phase: backward plan
// construction, leg-dedup/plan set-up, candidate-stream computation
// (the per-leg fit cuts feeding the merge), the pack/probe loop, and
// schedule extraction. The instrumented packages time each phase into
// the attached SolveTrace; consumers (the service's per-response cost
// block, the slow-query log, msbench's -json phase breakdowns) read
// deltas between Snapshots.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase names one stage of the solve path. The values index the fixed
// per-trace accumulator array, so they are dense and NumPhases closes
// the enumeration.
type Phase int

const (
	// PhaseConstruct is backward plan construction: core.Incremental
	// growth (the §3 placements), and for trees the §8 cover extraction.
	PhaseConstruct Phase = iota
	// PhaseDedup is once-per-solver set-up in the spider solver:
	// computing platform.LegKey fingerprints, sharing isomorphic legs'
	// plans, and the steady-state seed of the first MinMakespan.
	PhaseDedup
	// PhaseMerge is candidate-stream counting: the fit-count sums the
	// deadline search's seeding reads (a binary search over cached
	// emissions per distinct plan).
	PhaseMerge
	// PhasePack is the pack/probe loop: the ceiling-bounded merge and
	// the treap admissions — everything between the fit cuts and the
	// answer.
	PhasePack
	// PhaseExtract is schedule materialisation: reversing backward
	// placements into emission order and the Lemma 3 revert of packed
	// virtual slaves into spider tasks.
	PhaseExtract
	// NumPhases closes the enumeration; it sizes trace accumulators.
	NumPhases
)

// String names the phase as it appears in cost blocks, slow-query logs
// and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseConstruct:
		return "construct"
	case PhaseDedup:
		return "dedup"
	case PhaseMerge:
		return "merge"
	case PhasePack:
		return "pack"
	case PhaseExtract:
		return "extract"
	default:
		return "unknown"
	}
}

// Phases lists every phase in order; consumers iterating breakdowns
// range over it instead of hand-rolling the enumeration.
func Phases() [NumPhases]Phase {
	return [NumPhases]Phase{PhaseConstruct, PhaseDedup, PhaseMerge, PhasePack, PhaseExtract}
}

// SolveTrace accumulates per-phase wall time for one solver. All
// methods are nil-safe — a nil trace is the disabled state and costs a
// single pointer compare — and all accumulation is atomic, so parallel
// growth workers can record into one trace. Attach a trace with the
// solver's SetTrace and read it with Snapshot; per-query breakdowns are
// deltas between snapshots (the trace itself is cumulative, like the
// solver's probe telemetry).
type SolveTrace struct {
	ns    [NumPhases]atomic.Int64
	spans [NumPhases]atomic.Int64
}

// Observe adds one timed span of the phase.
func (t *SolveTrace) Observe(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.ns[p].Add(int64(d))
	t.spans[p].Add(1)
}

// ObserveSince adds the span from start to now — the usual hook shape:
//
//	var t0 time.Time
//	if s.trace != nil { t0 = time.Now() }
//	... phase work ...
//	s.trace.ObserveSince(obs.PhasePack, t0) // nil-safe
func (t *SolveTrace) ObserveSince(p Phase, start time.Time) {
	if t == nil {
		return
	}
	t.Observe(p, time.Since(start))
}

// PhaseSnapshot is a point-in-time copy of a trace's per-phase
// accumulators, in nanoseconds.
type PhaseSnapshot struct {
	Ns    [NumPhases]int64
	Spans [NumPhases]int64
}

// Snapshot copies the current accumulators. Each phase is read
// atomically; the phases are read one after another, so a snapshot
// taken while a solve is in flight is per-phase consistent, not
// globally consistent — callers wanting exact per-query deltas snapshot
// while they alone drive the solver (the service does so under its
// per-entry mutex).
func (t *SolveTrace) Snapshot() PhaseSnapshot {
	var s PhaseSnapshot
	if t == nil {
		return s
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.Ns[p] = t.ns[p].Load()
		s.Spans[p] = t.spans[p].Load()
	}
	return s
}

// Sub returns the per-phase difference s − prev: the work recorded
// between the two snapshots.
func (s PhaseSnapshot) Sub(prev PhaseSnapshot) PhaseSnapshot {
	var d PhaseSnapshot
	for p := Phase(0); p < NumPhases; p++ {
		d.Ns[p] = s.Ns[p] - prev.Ns[p]
		d.Spans[p] = s.Spans[p] - prev.Spans[p]
	}
	return d
}

// TotalNs sums the phases.
func (s PhaseSnapshot) TotalNs() int64 {
	var total int64
	for p := Phase(0); p < NumPhases; p++ {
		total += s.Ns[p]
	}
	return total
}

// Map renders the snapshot as a phase-name → nanoseconds map, omitting
// zero phases — the JSON shape of the service's cost block and the
// msbench phase cells.
func (s PhaseSnapshot) Map() map[string]int64 {
	m := make(map[string]int64, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		if s.Ns[p] != 0 {
			m[p.String()] = s.Ns[p]
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}
