// Command msperf is the repository's benchmark. It drives the
// scheduling stack only through its public entry points — the HTTP
// client, the consistent-hash router, the service and the repro
// facade — on one of three workloads, checks every answer against an
// oracle, and prints its metrics as one JSON line:
//
//	msperf --workload serve-warm|warm-probe|cold-build --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(benchmark(os.Args[1:]))
}

func benchmark(args []string) int {
	fs := flag.NewFlagSet("msperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-warm, warm-probe or cold-build")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "msperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	genStart := time.Now()
	in, err := generate(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msperf:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "msperf: %s seed %d: generated %d platforms and %d client streams of %d requests in %v\n",
		*workload, *seed, len(in.plats), len(in.streams), len(in.streams[0]), time.Since(genStart).Round(time.Millisecond))

	traceSeed := int64(0)
	if *trace == 1 {
		// The coins must not depend on how the stream was drawn, only
		// on the seed; 0 is reserved for untraced.
		traceSeed = *seed<<1 | 1
	}
	epoch := time.Now()
	var r *run
	switch *workload {
	case wServeWarm:
		r, err = runServeWarm(in, *seconds, traceSeed, epoch)
	case wWarmProbe:
		r, err = runWarmProbe(in, *seconds, traceSeed, epoch)
	default:
		r, err = runColdBuild(in, *seconds, traceSeed, epoch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "msperf:", err)
		return 1
	}
	gateStart := time.Now()
	g := runGate(r, epoch)

	attempted, failed, exact := r.attempted(), 0, 0
	for i, w := range r.workers {
		exact += g.exact[i]
		for _, o := range w.out {
			if o.failed {
				failed++
			}
		}
		for _, e := range w.errs {
			fmt.Fprintf(os.Stderr, "msperf: client %d: %s\n", i, e)
		}
	}
	if r.life.Sheds != 0 || r.life.Degraded != 0 {
		r.shape("%d sheds and %d degraded answers, want none", r.life.Sheds, r.life.Degraded)
	}
	// p90 must leave at least ten samples beyond it.
	if attempted < 100 {
		r.shape("only %d requests in the timed phase, p90 needs 100", attempted)
	}
	for _, e := range r.shapeErrs {
		fmt.Fprintln(os.Stderr, "msperf: workload shape:", e)
	}
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "msperf: gate:", e)
	}
	fmt.Fprintf(os.Stderr, "msperf: %d requests in %.2fs, %d failed, %d exact; gate checked %d distinct queries (%d by brute force) and %d schedules in %v\n",
		attempted, r.elapsed.Seconds(), failed, exact, g.keys, g.brute, g.schedules, time.Since(gateStart).Round(time.Millisecond))
	fmt.Fprint(os.Stderr, mixTable(r))
	if n := len(r.workers[0].stream); len(r.workers[0].out) == n {
		fmt.Fprintf(os.Stderr, "msperf: client 0 used its whole stream of %d requests before the deadline\n", n)
	}

	res := result{
		Correct:   len(r.shapeErrs) == 0 && len(g.errs) == 0 && failed == 0 && exact == attempted,
		Attempted: attempted,
		Failed:    failed,
	}
	if *trace == 1 {
		res.Metrics = layerMetrics(r)
		if r.workload == wServeWarm {
			sum, p50 := layerSplit(r, res.Metrics)
			fmt.Fprintf(os.Stderr, "msperf: layer split hop + http + service + solve = %.1f us; routed p50 %.1f us (%+.1f%%)\n",
				sum, p50, 100*(sum-p50)/p50)
		}
		recs := []*recorder{r.setupRec}
		for _, w := range r.workers {
			recs = append(recs, w.rec)
		}
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, *seed))
		err := os.MkdirAll(buildDir, 0o755)
		if err == nil {
			err = writeSpans(path, recs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "msperf: writing spans:", err)
		} else {
			fmt.Fprintln(os.Stderr, "msperf: spans written to", path)
		}
	} else {
		res.Metrics = e2eMetrics(r, exact)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
