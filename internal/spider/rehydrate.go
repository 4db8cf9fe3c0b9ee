package spider

import (
	"repro/internal/platform"
	"repro/internal/sched"
)

// This file is the solver's spill/rehydrate surface. A spider solver's
// paid state is its distinct leg plans — the backward constructions leg
// dedup shares across isomorphic legs — and each plan is a pure,
// deterministic function of its leg's (c, w) sequence. Exporting them
// keyed by platform.LegKey and re-importing into a fresh solver (same
// spider or ANY spider containing the same leg shapes) skips the
// construction entirely; the probe-side state (pooled packer, merge
// order, memo) is deliberately not exported — it is cheap to rebuild
// and worthless across platforms.

// PlanExport is one distinct leg plan's constructed backward sequence,
// keyed by the leg's injective platform.LegKey encoding. The Backward
// slice shares the plan's storage — treat it as read-only.
type PlanExport struct {
	Key      string
	Backward []sched.ChainTask
}

// ExportPlans returns the solver's distinct constructed plans (empty
// plans are skipped — there is nothing to spill). The exported slices
// alias the plans' storage: spill them before the next solve grows
// them, or copy.
func (s *Solver) ExportPlans() []PlanExport {
	out := make([]PlanExport, 0, len(s.plans))
	for _, lp := range s.plans {
		if lp.inc.Len() == 0 {
			continue
		}
		out = append(out, PlanExport{
			Key:      platform.LegKey(lp.inc.Chain()),
			Backward: lp.inc.ExportBackward(),
		})
	}
	return out
}

// RehydrateResult reports what a Rehydrate pass did. The solver is
// fully rehydrated when Hydrated == Plans: every distinct leg plan was
// seeded, so a repeat of any pre-spill query re-runs zero construction.
type RehydrateResult struct {
	// Plans is the number of distinct leg plans the solver holds.
	Plans int
	// Hydrated counts plans seeded from the lookup (plans that already
	// held growth count too — they need nothing).
	Hydrated int
	// Failed counts plans whose looked-up sequence was rejected by the
	// import validation; they stay empty and construct fresh on demand.
	Failed int
	// Err is the first import rejection, for logging; rehydration
	// continues past failures (a bad spill must never fail the query).
	Err error
}

// Rehydrate seeds every empty distinct leg plan from lookup, which maps
// a platform.LegKey to a previously exported backward sequence (nil =
// not found). The imported sequences are validated placement by
// placement (core.Incremental.ImportBackward); a plan whose sequence is
// missing or rejected simply stays cold. The solver takes ownership of
// the returned slices.
func (s *Solver) Rehydrate(lookup func(key string) []sched.ChainTask) RehydrateResult {
	res := RehydrateResult{Plans: len(s.plans)}
	for _, lp := range s.plans {
		if lp.inc.Len() > 0 {
			res.Hydrated++
			continue
		}
		tasks := lookup(platform.LegKey(lp.inc.Chain()))
		if len(tasks) == 0 {
			continue
		}
		if err := lp.inc.ImportBackward(tasks); err != nil {
			res.Failed++
			if res.Err == nil {
				res.Err = err
			}
			continue
		}
		res.Hydrated++
	}
	return res
}
