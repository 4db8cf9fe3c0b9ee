// Command msbench runs the reproduction experiment suite: every figure
// and validated claim of the paper, one registered experiment each
// (msbench -list prints the registry).
//
// Usage:
//
//	msbench                 # run everything
//	msbench -run E1,E4      # selected experiments
//	msbench -list           # list experiments
//	msbench -csv dir/       # also dump each table as CSV under dir/
//	msbench -json file      # dump the timing ledger of the hot-path cells as JSON
//	msbench -cpuprofile f   # profile the run's CPU (any mode)
//	msbench -memprofile f   # dump a heap profile at exit (any mode)
//
// The -json dump is the timing ledger: the hot-path cells of the chain
// and spider solvers, the wide-platform packing, the warm probe loop,
// the E6-cold construction cells and the service, each declared once in
// the experiments package and timed as the minimum over repetitions.
// Spider cells carry probes_per_solve, the packing probes of one cold
// solve, and most cells carry phase_ns, the phase-by-phase wall-time
// breakdown (construct/dedup/merge/pack/extract) of one extra traced
// run taken outside the timed reps, per operation like ns_per_op.
// BENCH_current.json at the repo root is such a dump; BENCH_seed.json
// keeps the seed-era timings, taken with solver paths that have since
// moved into test code, as history. No test compares timings: the
// experiments package's TestOfferCountsPinned pins each cell's work
// counters, which do not move with the host.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("msbench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		runIDs     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		csvDir     = fs.String("csv", "", "also write each table as CSV under this directory")
		jsonPath   = fs.String("json", "", "time the hot-path cells and write the timing ledger JSON here")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (taken at exit, after a GC) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Profiling wraps whatever the invocation does — the experiment
	// suite or the -json cells — so hot-path investigations profile
	// exactly the workload they will be judged by.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "msbench: creating heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "msbench: writing heap profile:", err)
			}
		}()
	}

	if *jsonPath != "" {
		b, err := experiments.MeasureBenchBaseline()
		if err != nil {
			return fmt.Errorf("measuring bench baseline: %w", err)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("writing bench baseline: %w", err)
		}
		defer f.Close()
		if err := b.WriteJSON(f); err != nil {
			return fmt.Errorf("writing bench baseline: %w", err)
		}
		fmt.Fprintf(out, "wrote %d baseline points to %s (%s)\n", len(b.Points), *jsonPath, b.Note)
		return nil
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(out, "%-4s %-28s %s\n", e.ID, e.Name, e.Paper)
		}
		return nil
	}

	selected := all
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("creating CSV directory: %w", err)
		}
	}

	for _, e := range selected {
		fmt.Fprintf(out, "=== %s: %s (%s)\n", e.ID, e.Name, e.Paper)
		start := time.Now()
		rep, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(out, rep.Format())
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			for i := range rep.Tables {
				name := fmt.Sprintf("%s_table%d.csv", strings.ToLower(e.ID), i+1)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(rep.Tables[i].CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", path, err)
				}
			}
		}
	}
	return nil
}
