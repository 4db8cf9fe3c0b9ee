package main

import (
	"os"
	"testing"

	"repro/internal/experiments"
)

// TestNoBenchRegressionAgainstSeed guards the E5/E5c hot-path families
// against >20% regressions relative to the committed seed-era baseline
// (BENCH_seed.json, a static file). The comparison scales by a
// calibration workload measured in both runs, so the check tracks
// algorithmic regressions rather than machine speed. The seed spider
// numbers come from the unmemoized reference solver, which the memoized
// solver beats severalfold — the bar therefore has wide headroom and a
// genuine regression is what it takes to trip it.
func TestNoBenchRegressionAgainstSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression guard skipped in -short mode")
	}
	f, err := os.Open("../../BENCH_seed.json")
	if os.IsNotExist(err) {
		t.Skip("BENCH_seed.json not present; restore the committed seed baseline from version control")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := experiments.ReadBenchBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := experiments.MeasureBenchBaseline()
	if err != nil {
		t.Fatal(err)
	}
	regs := experiments.CompareBenchBaselines(baseline, cur, 1.2)
	if len(regs) > 0 {
		// Transient CPU contention — the rest of the suite running in
		// parallel — can push a cell a few percent past the bar; a
		// genuine algorithmic regression reproduces on a re-measure.
		t.Logf("re-measuring %d flagged cells: %v", len(regs), regs)
		cur, err = experiments.MeasureBenchBaseline()
		if err != nil {
			t.Fatal(err)
		}
		regs = experiments.CompareBenchBaselines(baseline, cur, 1.2)
	}
	for _, reg := range regs {
		t.Error(reg)
	}
}

// TestBenchBaselineRoundTrip checks the dump/parse/compare plumbing on
// synthetic numbers, independent of wall-clock noise.
func TestBenchBaselineRoundTrip(t *testing.T) {
	base := &experiments.BenchBaseline{
		Note:          "synthetic",
		CalibrationNs: 1000,
		Points: []experiments.BenchPoint{
			{Family: "E5-chain", Size: 512, NsPerOp: 10000},
			{Family: "E5c-spider", Size: 128, NsPerOp: 40000},
		},
	}
	// A run on a machine 2x slower (calibration 2000): the same
	// algorithmic speed measures 20000/80000, within tolerance; a 3x
	// slowdown of one family must be flagged.
	cur := &experiments.BenchBaseline{
		CalibrationNs: 2000,
		Points: []experiments.BenchPoint{
			{Family: "E5-chain", Size: 512, NsPerOp: 21000},
			{Family: "E5c-spider", Size: 128, NsPerOp: 240000},
		},
	}
	regs := experiments.CompareBenchBaselines(base, cur, 1.2)
	if len(regs) != 1 {
		t.Fatalf("want exactly the spider regression flagged, got %v", regs)
	}
}
