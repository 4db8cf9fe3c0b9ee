package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/tree"
)

// bruteLimit bounds the forward simulations one brute-force check may
// run (processors^tasks destination sequences, summed over task counts
// for the max-tasks searches).
const bruteLimit = 20000

// answer is the scalar part of a response: tasks and makespan (0 for
// max_tasks).
type answer struct {
	tasks    int32
	makespan platform.Time
}

// verdict is the gate's result for one distinct query.
type verdict struct {
	want  answer
	err   string // non-empty: an oracle check failed
	brute bool   // a brute-force oracle cross-checked it
}

// gate is the exactness gate's summary.
type gate struct {
	keys, brute, schedules int
	exact                  []int // per worker: outcomes equal to the oracle
	errs                   []string
}

func (g *gate) fail(format string, args ...any) {
	if len(g.errs) < 10 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// runGate recomputes every distinct (platform, op, n, deadline) the run
// asked on a fresh repro.NewSolver per platform, cross-checks small
// platforms by brute force, checks lower and upper bounds, and verifies
// every returned schedule. It runs after the timed phase, on two
// goroutines.
func runGate(r *run, epoch time.Time) *gate {
	in := r.in
	byPlat := map[int32][]qkey{}
	seen := map[qkey]bool{}
	for _, w := range r.workers {
		for _, o := range w.out {
			k := w.stream[o.q].key()
			if !seen[k] {
				seen[k] = true
				byPlat[k.plat] = append(byPlat[k.plat], k)
			}
		}
	}
	plats := make([]int32, 0, len(byPlat))
	for p, ks := range byPlat {
		plats = append(plats, p)
		sort.Slice(ks, func(i, j int) bool { return keyLess(ks[i], ks[j]) })
	}
	sort.Slice(plats, func(i, j int) bool { return plats[i] < plats[j] })

	verdicts := make(map[qkey]verdict, len(seen))
	var mu sync.Mutex
	work := make(chan int32, len(plats)) // every platform is queued up front
	for _, p := range plats {
		work <- p
	}
	close(work)
	g := &gate{keys: len(seen)}
	var wg sync.WaitGroup
	recs := []*recorder{newRecorder(epoch, 3), newRecorder(epoch, 4)}
	for _, rec := range recs {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for p := range work {
				vs := checkPlatform(in.plats[p], byPlat[p], rec)
				mu.Lock()
				for k, v := range vs {
					verdicts[k] = v
				}
				mu.Unlock()
			}
		}(rec)
	}
	wg.Wait()
	r.setupRec.spans = append(r.setupRec.spans, recs[0].spans...)
	r.setupRec.spans = append(r.setupRec.spans, recs[1].spans...)

	for k, v := range verdicts {
		if v.brute {
			g.brute++
		}
		if v.err != "" {
			g.fail("platform %d (%s) %s n=%d deadline=%d: %s", k.plat, in.plats[k.plat].fam, opNames[k.op], k.n, k.deadline, v.err)
		}
	}
	for _, w := range r.workers {
		schedOK := make([]string, len(w.scheds))
		checked := make([]bool, len(w.scheds))
		exact := 0
		for _, o := range w.out {
			if o.failed {
				continue
			}
			q := w.stream[o.q]
			v := verdicts[q.key()]
			got := answer{tasks: o.tasks, makespan: o.makespan}
			if v.err != "" {
				continue
			}
			if got != v.want {
				g.fail("platform %d (%s) %s n=%d deadline=%d: answered %+v, oracle %+v", q.plat, in.plats[q.plat].fam, opNames[q.op], q.n, q.deadline, got, v.want)
				continue
			}
			if q.class == classSchedule {
				if o.sched < 0 {
					g.fail("platform %d: schedule-bearing answer without a schedule", q.plat)
					continue
				}
				if !checked[o.sched] {
					checked[o.sched] = true
					schedOK[o.sched] = checkSchedule(w.scheds[o.sched], q, got)
					g.schedules++
				}
				if schedOK[o.sched] != "" {
					g.fail("platform %d %s n=%d: returned schedule: %s", q.plat, opNames[q.op], q.n, schedOK[o.sched])
					continue
				}
			}
			exact++
		}
		g.exact = append(g.exact, exact)
	}
	return g
}

func keyLess(a, b qkey) bool {
	if a.op != b.op {
		return a.op < b.op
	}
	if a.n != b.n {
		return a.n < b.n
	}
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return !a.sched && b.sched
}

// checkSchedule decodes and verifies one returned schedule against
// the answer it came with.
func checkSchedule(raw []byte, q query, got answer) string {
	dec, err := sched.ReadSchedule(bytes.NewReader(raw))
	if err != nil {
		return err.Error()
	}
	var s repro.Schedule
	switch {
	case dec.Chain != nil:
		s = dec.Chain
	case dec.Spider != nil:
		s = dec.Spider
	default:
		return "empty schedule envelope"
	}
	if err := s.Verify(); err != nil {
		return "Verify: " + err.Error()
	}
	if s.Len() != int(got.tasks) || s.Makespan() != got.makespan {
		return fmt.Sprintf("schedule holds %d tasks ending at %d, answer says %d at %d", s.Len(), s.Makespan(), got.tasks, got.makespan)
	}
	if q.op == opWithin && s.Makespan() > q.deadline {
		return fmt.Sprintf("makespan %d exceeds deadline %d", s.Makespan(), q.deadline)
	}
	return ""
}

func decodePlatform(payload []byte) (repro.Platform, error) {
	dec, err := platform.Read(bytes.NewReader(payload))
	switch {
	case err != nil:
		return nil, err
	case dec.Chain != nil:
		return *dec.Chain, nil
	case dec.Spider != nil:
		return *dec.Spider, nil
	case dec.Fork != nil:
		return *dec.Fork, nil
	case dec.Tree != nil:
		return *dec.Tree, nil
	}
	return nil, fmt.Errorf("platform envelope of kind %q holds no platform", dec.Kind)
}

type upperBounder interface {
	TasksUpperBound(n int, deadline platform.Time) (int, error)
}

// checkPlatform decodes the platform the requests carried and answers
// its distinct queries on one fresh solver, in key order.
func checkPlatform(p plat, keys []qkey, rec *recorder) map[qkey]verdict {
	out := make(map[qkey]verdict, len(keys))
	var s repro.Solver
	var err error
	if p.p, err = decodePlatform(p.payload); err == nil {
		sp := rec.open("repro.NewSolver", -1, -1)
		s, err = repro.NewSolver(p.p)
		rec.close(sp)
	}
	for _, k := range keys {
		if err != nil {
			out[k] = verdict{err: err.Error()}
			continue
		}
		out[k] = checkQuery(p, s, k)
	}
	return out
}

func checkQuery(p plat, s repro.Solver, k qkey) verdict {
	n := int(k.n)
	var v verdict
	var sch repro.Schedule
	var err error
	switch k.op {
	case opMin:
		var mk platform.Time
		mk, sch, err = s.MinMakespan(n)
		v.want = answer{tasks: k.n, makespan: mk}
	case opMax:
		var t int
		t, err = s.MaxTasks(n, k.deadline)
		v.want = answer{tasks: int32(t)}
	default:
		sch, err = s.ScheduleWithin(n, k.deadline)
		if err == nil {
			v.want = answer{tasks: int32(sch.Len()), makespan: sch.Makespan()}
		}
	}
	if err != nil {
		v.err = "oracle solve: " + err.Error()
		return v
	}
	if sch != nil {
		if err := sch.Verify(); err != nil {
			v.err = "oracle schedule: " + err.Error()
			return v
		}
	}
	if v.want.makespan > 0 {
		lb, err := p.p.LowerBound(int(v.want.tasks))
		if err != nil || lb > v.want.makespan {
			v.err = fmt.Sprintf("lower bound %d above makespan %d (%v)", lb, v.want.makespan, err)
			return v
		}
	}
	if k.op != opMin {
		ub, err := p.p.(upperBounder).TasksUpperBound(n, k.deadline)
		if err != nil || ub < int(v.want.tasks) {
			v.err = fmt.Sprintf("task upper bound %d below %d (%v)", ub, v.want.tasks, err)
			return v
		}
	}
	v.brute, v.err = bruteCheck(p, k, v.want)
	return v
}

// bruteCheck cross-checks small platforms exhaustively: chains,
// spiders and forks must match the optimum exactly; a tree's cover
// heuristic must be no better than the tree's true optimum.
func bruteCheck(p plat, k qkey, want answer) (bool, string) {
	n := int(k.n)
	cost := func(tasks int) float64 { return math.Pow(float64(p.procs), float64(tasks)) }
	if k.op == opMin {
		if cost(n) > bruteLimit {
			return false, ""
		}
		var mk platform.Time
		var err error
		switch v := p.p.(type) {
		case platform.Chain:
			_, mk, err = opt.BruteChain(v, n)
		case platform.Spider:
			_, mk, err = opt.BruteSpider(v, n)
		case platform.Fork:
			_, mk, err = opt.BruteFork(v, n)
		case platform.Tree:
			mk, err = tree.Brute(v, n)
			if err == nil && mk > want.makespan {
				return true, fmt.Sprintf("cover makespan %d beats the brute-force optimum %d", want.makespan, mk)
			}
			return true, errString(err)
		}
		if err == nil && mk != want.makespan {
			return true, fmt.Sprintf("brute-force optimum %d, answer %d", mk, want.makespan)
		}
		return true, errString(err)
	}
	// The max-tasks searches run the optimum for m = 1 .. answer+1.
	total := 0.0
	for m := 1; m <= min(int(want.tasks)+1, n); m++ {
		total += cost(m)
	}
	if total > bruteLimit {
		return false, ""
	}
	var t int
	var err error
	switch v := p.p.(type) {
	case platform.Chain:
		t, err = opt.BruteChainMaxTasks(v, n, k.deadline)
	case platform.Spider:
		t, err = opt.BruteSpiderMaxTasks(v, n, k.deadline)
	case platform.Fork:
		t, err = opt.BruteForkMaxTasks(v, n, k.deadline)
	default:
		return false, ""
	}
	if err == nil && t != int(want.tasks) {
		return true, fmt.Sprintf("brute-force max tasks %d, answer %d", t, want.tasks)
	}
	return true, errString(err)
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}
