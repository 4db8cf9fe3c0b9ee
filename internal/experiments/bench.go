package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/solve"
	"repro/internal/spider"
)

// This file is msbench -json, the timing ledger of the hot-path cells:
// benchCells declares every cell once, as (family, size, platform, op),
// and MeasureBenchBaseline times each with a min-of-reps harness beside
// its phase breakdown. No test compares the timings, which move with
// the host. TestOfferCountsPinned pins the same cells' work counters
// instead: probes, offers, placements, distinct plans and, on the warm
// paths, allocations. BENCH_seed.json at the repo root keeps the
// seed-era timings, taken with the reference spider solver, slice
// packer and per-leg construction that are test-only now, as history.

// BenchPoint is one measured (family, size) cell. ProbesPerSolve, where
// present, is the solver's packing-probe telemetry for one cold
// min-makespan solve of the cell — the deadline-search work the
// two-sided seeding exists to shrink. PhaseNs, where present, is the
// phase-by-phase wall-time breakdown (construct, dedup, merge, pack,
// extract) of one extra run of the cell, taken with an obs.SolveTrace
// OUTSIDE the timed reps so the timed numbers stay hook-free, in the
// same per-operation unit as NsPerOp.
type BenchPoint struct {
	Family         string           `json:"family"`
	Size           int              `json:"size"`
	NsPerOp        int64            `json:"ns_per_op"`
	ProbesPerSolve int64            `json:"probes_per_solve,omitempty"`
	PhaseNs        map[string]int64 `json:"phase_ns,omitempty"`
}

// BenchBaseline is one msbench -json dump.
type BenchBaseline struct {
	// Note records how the dump was taken.
	Note   string       `json:"note"`
	Points []BenchPoint `json:"points"`
}

// benchReps is the number of repetitions per cell; the minimum is kept,
// which is the standard robust estimator for wall-clock microbenchmarks.
const benchReps = 9

// benchOp is the operation a cell times.
type benchOp int

const (
	// opSchedule is one-shot core.Schedule of n tasks on a chain.
	opSchedule benchOp = iota
	// opCold is one min-makespan solve of n tasks on a fresh
	// spider.Solver, leg dedup and plan construction included.
	opCold
	// opWalk is probeWalk's deadline sequence, asked as max_tasks of n
	// tasks of a solver warmed by one min-makespan; timed per probe.
	opWalk
	// opServeRepeat is a repeated min_makespan of n tasks over loopback
	// HTTP: after the first, every request is a memo hit.
	opServeRepeat
	// opServeWalk is max_tasks of n tasks over loopback HTTP at a new
	// deadline per request, descending from the optimum: each is a
	// memo miss that runs the warm solver.
	opServeWalk
	// opServeFanIn is svcFanIn concurrent identical min_makespan
	// requests of n tasks over loopback HTTP, timed per request: the
	// coalescing path under contention.
	opServeFanIn
)

// benchCell is one msbench -json cell: the dump reports it under
// (family, size), where size is n, or the leg count for the E5p-loop
// and E6-cold families.
type benchCell struct {
	family string
	size   int
	p      solve.Platform
	n      int
	op     benchOp
}

// svcFanIn is the number of concurrent requests of the SVC-coalesce
// cell.
const svcFanIn = 32

// benchCells is the ledger's cell table. The E5c-spider sizes match
// BenchmarkSpiderMinMakespan, so the Go benchmark and the dump describe
// the same cells. E5w-wide is min-makespan on a spider with hundreds of
// legs, where packing dominates; E5p-loop the warm probe loop the
// ceiling-bounded merge and packer serve; E6-cold the cold solve on
// E6c's duplicate-heavy and all-distinct platforms, which leg dedup
// collapses or cannot. The SVC cells put the service on the E5c spider
// and on a general tree, whose warmed entry is a cached §8 cover plus
// its inner spider solver.
func benchCells() []benchCell {
	g := platform.MustGenerator(2024, 1, 9, platform.Uniform)
	ch := g.Chain(16)
	sp := g.Spider(4, 3)
	wide := wideSpider(256)
	// SVC-tree draws its platform from a dedicated generator so the
	// other cells' instances stay byte-identical to earlier dumps.
	tr := platform.MustGenerator(77, 1, 9, platform.Uniform).Tree(3, 3)
	return []benchCell{
		{"E5-chain", 512, ch, 512, opSchedule},
		{"E5-chain", 2048, ch, 2048, opSchedule},
		{"E5c-spider", 32, sp, 32, opCold},
		{"E5c-spider", 128, sp, 128, opCold},
		{"E5c-spider", 512, sp, 512, opCold},
		{"E5w-wide", 512, wide, 512, opCold},
		{"E5w-wide", 1024, wide, 1024, opCold},
		{"E5p-loop", 256, wide, 512, opWalk},
		{"E5p-loop", 1024, wideSpider(1024), 512, opWalk},
		{"E6-cold-dup", 256, dupHeavySpider(256), 512, opCold},
		{"E6-cold-dup", 1024, dupHeavySpider(1024), 512, opCold},
		{"E6-cold-distinct", 256, distinctSpider(256), 512, opCold},
		{"E6-cold-distinct", 1024, distinctSpider(1024), 512, opCold},
		{"SVC-warm", 128, sp, 128, opServeRepeat},
		{"SVC-warm", 512, sp, 512, opServeRepeat},
		{"SVC-tree", 128, tr, 128, opServeWalk},
		{"SVC-tree", 512, tr, 512, opServeWalk},
		{"SVC-coalesce", 512, sp, 512, opServeFanIn},
	}
}

// chainPhases is solvePhases for the chain family: one traced
// incremental plan build + materialisation.
func chainPhases(ch platform.Chain, n int) (map[string]int64, error) {
	inc, err := core.NewIncremental(ch)
	if err != nil {
		return nil, err
	}
	tr := &obs.SolveTrace{}
	inc.SetTrace(tr)
	if _, err := inc.Schedule(n); err != nil {
		return nil, err
	}
	return tr.Snapshot().Map(), nil
}

// solvePhases runs one extra cold min-makespan solve of a cell with a
// trace attached and returns its phase breakdown and packing probes.
// It runs outside the timed reps: the dump's ns_per_op stays a
// measurement of the untraced path, and the breakdown is representative
// context next to it.
func solvePhases(sp platform.Spider, n int) (map[string]int64, int64, error) {
	s, err := spider.NewSolver(sp)
	if err != nil {
		return nil, 0, err
	}
	tr := &obs.SolveTrace{}
	s.SetTrace(tr)
	if _, _, err := s.MinMakespan(n); err != nil {
		return nil, 0, err
	}
	return tr.Snapshot().Map(), int64(s.Stats().PackProbes), nil
}

// perOpPhases scales a phase breakdown recorded over ops operations to
// one operation, the unit of a cell's ns_per_op.
func perOpPhases(total obs.PhaseSnapshot, ops int) map[string]int64 {
	for p := range total.Ns {
		total.Ns[p] /= int64(ops)
	}
	return total.Map()
}

// minTime returns the minimum wall time of reps runs of fn.
func minTime(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// MeasureBenchBaseline times every cell of benchCells on the production
// solvers and service, in table order: the SVC cells share one service
// behind a loopback server.
func MeasureBenchBaseline() (*BenchBaseline, error) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL, ts.Client())
	b := &BenchBaseline{Note: "fast solver (ceiling-bounded merge + packer + leg dedup)"}
	for _, c := range benchCells() {
		pt := BenchPoint{Family: c.family, Size: c.size}
		run, ops, err := c.prepare(cl, &pt)
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", c.family, c.size, err)
		}
		d, err := minTime(benchReps, run)
		if err != nil {
			return nil, fmt.Errorf("%s/%d: %w", c.family, c.size, err)
		}
		pt.NsPerOp = d.Nanoseconds() / int64(ops)
		b.Points = append(b.Points, pt)
	}
	return b, nil
}

// prepare sets the cell up and returns its timed run, which performs
// ops operations. It fills pt's probe count and phase breakdown from
// untimed runs, so no trace rides in the timed reps. Every SVC request
// is built from the platform value, so each rep pays the platform
// encode as a caller would.
func (c benchCell) prepare(cl *client.Client, pt *BenchPoint) (run func() error, ops int, err error) {
	ctx := context.Background()
	send := func(op service.Op, deadline platform.Time) (*service.Response, error) {
		req, err := service.NewRequest(c.p, op, c.n, deadline)
		if err != nil {
			return nil, err
		}
		return cl.Do(ctx, req)
	}
	switch c.op {
	case opSchedule:
		ch := c.p.(platform.Chain)
		pt.PhaseNs, err = chainPhases(ch, c.n)
		return func() error {
			_, err := core.Schedule(ch, c.n)
			return err
		}, 1, err
	case opCold:
		sp := c.p.(platform.Spider)
		pt.PhaseNs, pt.ProbesPerSolve, err = solvePhases(sp, c.n)
		return func() error {
			s, err := spider.NewSolver(sp)
			if err != nil {
				return err
			}
			_, _, err = s.MinMakespan(c.n)
			return err
		}, 1, err
	case opWalk:
		s, walk, err := warmWalk(c.p.(platform.Spider), c.n)
		if err != nil {
			return nil, 0, err
		}
		pt.ProbesPerSolve = int64(s.Stats().PackProbes)
		// One untimed traced walk gives the warm loop's own phase
		// breakdown, scaled to one probe like NsPerOp; the snapshot
		// taken after attaching leaves out the set-up flush.
		tr := &obs.SolveTrace{}
		s.SetTrace(tr)
		before := tr.Snapshot()
		if err := runWalk(s, c.n, walk); err != nil {
			return nil, 0, err
		}
		pt.PhaseNs = perOpPhases(tr.Snapshot().Sub(before), len(walk))
		s.SetTrace(nil)
		return func() error { return runWalk(s, c.n, walk) }, len(walk), nil
	case opServeRepeat:
		// One cold query warms the solver and fills the memo; the
		// timed reps are all warm-path.
		_, err := send(service.OpMinMakespan, 0)
		return func() error {
			_, err := send(service.OpMinMakespan, 0)
			return err
		}, 1, err
	case opServeWalk:
		// The deadline walk descends from the optimum, one distinct
		// value per rep: the same solver work on every machine.
		opt, err := send(service.OpMinMakespan, 0)
		if err != nil {
			return nil, 0, err
		}
		rep := 0
		return func() error {
			dl := max(opt.Makespan-platform.Time(rep), 1)
			rep++
			_, err := send(service.OpMaxTasks, dl)
			return err
		}, 1, nil
	case opServeFanIn:
		return func() error {
			var wg sync.WaitGroup
			errs := make([]error, svcFanIn)
			wg.Add(svcFanIn)
			for i := 0; i < svcFanIn; i++ {
				go func(i int) {
					defer wg.Done()
					_, errs[i] = send(service.OpMinMakespan, 0)
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		}, svcFanIn, nil
	}
	return nil, 0, fmt.Errorf("unknown bench op %d", c.op)
}

// WriteJSON dumps the baseline.
func (b *BenchBaseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
