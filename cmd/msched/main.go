// Command msched computes optimal master-slave schedules (Dutot, IPPS
// 2003) for chains, spiders, forks and general trees.
//
// Usage:
//
//	msched -chain 2,5,3,3 -n 5 [-deadline 20] [-gantt] [-svg out.svg] [-json out.json]
//	msched -spider "2,5,3,3;1,4" -n 10 [-gantt]
//	msched -platform platform.json -n 10
//
// The chain/spider specs are (c,w) pairs; see cmd/msgen to generate
// platform files (any kind, trees included — a tree schedules through
// its §8 spider cover). With -deadline the tool maximises the number of
// tasks completed by the deadline instead of minimising the makespan.
//
// Every topology routes through the unified repro.Platform /
// repro.Solver API — one code path from the parsed platform to the
// printed schedule. To cross-check a schedule independently, write it
// with -json and feed the file to cmd/msverify.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/platform"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	// A malformed input must exit with a clear message, never a panic:
	// turn any escaped panic into an error so main reports it and exits
	// non-zero.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	fs := flag.NewFlagSet("msched", flag.ContinueOnError)
	var (
		chainSpec  = fs.String("chain", "", "inline chain spec: c1,w1,c2,w2,...")
		spiderSpec = fs.String("spider", "", "inline spider spec: leg;leg;... (each leg a chain spec)")
		platPath   = fs.String("platform", "", "platform JSON file (see msgen; any kind, trees included)")
		n          = fs.Int("n", 1, "number of tasks")
		deadline   = fs.Int64("deadline", -1, "maximise tasks completed by this deadline instead of minimising makespan")
		showGantt  = fs.Bool("gantt", false, "print an ASCII Gantt chart")
		scale      = fs.Int64("scale", 1, "Gantt time units per character")
		svgPath    = fs.String("svg", "", "also write an SVG Gantt chart to this file")
		jsonPath   = fs.String("json", "", "also write the schedule as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := resolvePlatform(*chainSpec, *spiderSpec, *platPath)
	if err != nil {
		return err
	}
	return schedule(out, p, *n, *deadline, *showGantt, platform.Time(*scale), *svgPath, *jsonPath)
}

// resolvePlatform turns the flags into one Platform. Fork files load as
// their single-node-leg spider form, keeping the historical output.
func resolvePlatform(chainSpec, spiderSpec, platPath string) (repro.Platform, error) {
	given := 0
	for _, s := range []string{chainSpec, spiderSpec, platPath} {
		if s != "" {
			given++
		}
	}
	if given != 1 {
		return nil, fmt.Errorf("give exactly one of -chain, -spider or -platform")
	}
	switch {
	case chainSpec != "":
		return cli.ParseChain(chainSpec)
	case spiderSpec != "":
		return cli.ParseSpider(spiderSpec)
	default:
		dec, err := cli.LoadPlatform(platPath)
		if err != nil {
			return nil, err
		}
		switch dec.Kind {
		case "chain":
			return *dec.Chain, nil
		case "spider":
			return *dec.Spider, nil
		case "tree":
			return *dec.Tree, nil
		default: // fork
			return dec.Fork.Spider(), nil
		}
	}
}

// schedule runs one query through the unified Solver API and prints the
// result. The horizon check rejects platforms
// whose n-task arithmetic would overflow: oversized (c, w) values or
// task counts would otherwise surface as baffling internal errors — or
// wrapped, silently wrong schedules — deep in the solver.
func schedule(out io.Writer, p repro.Platform, n int, deadline int64, showGantt bool, scale platform.Time, svgPath, jsonPath string) error {
	if err := p.CheckHorizon(n); err != nil {
		return err
	}
	solver, err := repro.NewSolver(p)
	if err != nil {
		return err
	}
	var s repro.Schedule
	if deadline >= 0 {
		s, err = solver.ScheduleWithin(n, platform.Time(deadline))
	} else {
		_, s, err = solver.MinMakespan(n)
	}
	if err != nil {
		return err
	}
	if err := s.Verify(); err != nil {
		return fmt.Errorf("internal error: produced an infeasible schedule: %w", err)
	}
	fmt.Fprintf(out, "platform: %s\n", p)
	if deadline >= 0 {
		fmt.Fprintf(out, "deadline %d: scheduled %d of %d tasks\n", deadline, s.Len(), n)
	}
	fmt.Fprint(out, s)
	fmt.Fprintf(out, "makespan: %d\n", s.Makespan())
	if lb, err := p.LowerBound(s.Len()); err == nil {
		fmt.Fprintf(out, "steady-state lower bound: %d\n", lb)
	}
	if showGantt {
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.GanttASCII(s.Intervals(), scale))
	}
	if svgPath != "" {
		if err := os.WriteFile(svgPath, []byte(repro.GanttSVG(s.Intervals(), 8)), 0o644); err != nil {
			return fmt.Errorf("writing SVG: %w", err)
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return fmt.Errorf("writing schedule JSON: %w", err)
		}
		defer f.Close()
		return repro.WriteSchedule(f, s)
	}
	return nil
}
