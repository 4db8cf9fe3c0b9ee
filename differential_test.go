package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/tree"
)

// diffCase is one random small platform of the differential test, with
// the task count its brute-force oracle can afford.
type diffCase struct {
	p repro.Platform
	n int
	// spiderShaped marks a tree that embeds a spider: its cover is the
	// whole tree, so the heuristic must match the tree brute force.
	spiderShaped bool
}

// diffCases draws small platforms of all four kinds: the chain, spider
// and fork oracles and the tree brute force enumerate procs^n
// destination sequences, so n stays small.
func diffCases() []diffCase {
	g := platform.MustGenerator(919, 1, 7, platform.Uniform)
	var cs []diffCase
	for i := 0; i < 5; i++ {
		cs = append(cs,
			diffCase{p: g.Chain(1 + i%3), n: 2 + i%3},
			diffCase{p: g.Spider(2+i%2, 2), n: 2 + i%3},
			diffCase{p: g.Fork(2 + i%3), n: 2 + i%3},
			diffCase{p: g.Tree(2, 2), n: 2 + i%2},
			diffCase{p: platform.TreeFromSpider(g.Spider(2, 2)), n: 2 + i%2, spiderShaped: true},
		)
	}
	return cs
}

// diffRequest is the /solve request for any platform kind.
func diffRequest(t *testing.T, p repro.Platform, op service.Op, n int, dl repro.Time, withSched bool) *service.Request {
	t.Helper()
	req, err := service.NewRequest(p, op, n, dl)
	if err != nil {
		t.Fatal(err)
	}
	req.IncludeSchedule = withSched
	return req
}

// scheduleBytes is the wire document of a facade schedule, compacted:
// the HTTP layer re-indents the document it embeds.
func scheduleBytes(t *testing.T, s repro.Schedule) []byte {
	t.Helper()
	var doc []byte
	switch v := s.(type) {
	case *repro.ChainSchedule:
		doc = sched.AppendChainSchedule(nil, v)
	case *repro.SpiderSchedule:
		doc = sched.AppendSpiderSchedule(nil, v)
	default:
		t.Fatalf("unexpected schedule type %T", s)
	}
	return compact(t, doc)
}

// compact strips the whitespace from a JSON document.
func compact(t *testing.T, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		t.Fatalf("schedule document: %v", err)
	}
	return buf.Bytes()
}

// diffAnswer is one entry point's answer to one query.
type diffAnswer struct {
	tasks    int
	makespan repro.Time
}

// diffEntry answers one request through one entry point.
type diffEntry struct {
	name string
	do   func(ctx context.Context, req *service.Request) (*service.Response, error)
}

// TestEntryPointsAgree is the differential test over every entry point:
// each query on random small platforms of all four kinds, for all three
// ops, is answered through repro.NewSolver, Service.Solve, the HTTP
// client against one shard, and the client through cluster.Router over
// two shards. Every entry point must give the same task count and
// makespan and, for schedule-bearing queries, the same schedule
// document in the requester's numbering; every schedule must pass
// Verify and replay in the discrete-event simulator; and the answers
// must equal the exhaustive-search optimum for chains, spiders and
// forks, and bound the tree optimum from above (with equality on
// spider-shaped trees).
func TestEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	direct := service.New(service.Config{})

	single := httptest.NewServer(service.New(service.Config{}).Handler())
	defer single.Close()
	shardA := httptest.NewServer(service.New(service.Config{}).Handler())
	defer shardA.Close()
	shardB := httptest.NewServer(service.New(service.Config{}).Handler())
	defer shardB.Close()
	rt, err := cluster.NewRouter([]string{shardA.URL, shardB.URL}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(rt.Handler())
	defer routed.Close()

	entries := []diffEntry{
		{"Service.Solve", direct.Solve},
		{"client", client.New(single.URL, nil).Do},
		{"cluster.Router", client.New(routed.URL, nil).Do},
	}

	for ci, c := range diffCases() {
		t.Run(fmt.Sprintf("%d-%s", ci, c.p.Kind()), func(t *testing.T) {
			s, err := repro.NewSolver(c.p)
			if err != nil {
				t.Fatal(err)
			}
			mk, sch, err := s.MinMakespan(c.n)
			if err != nil {
				t.Fatal(err)
			}
			checkOracleMakespan(t, c, mk)
			checkReplay(t, sch, true)
			deadlines := []repro.Time{mk, mk - 1, mk * 2 / 3, 0}

			type query struct {
				op   service.Op
				dl   repro.Time
				want diffAnswer
				doc  []byte // the schedule's compact wire document
			}
			qs := []query{{op: service.OpMinMakespan, want: diffAnswer{tasks: sch.Len(), makespan: mk},
				doc: verifiedBytes(t, sch)}}
			for _, dl := range deadlines {
				k, err := s.MaxTasks(c.n, dl)
				if err != nil {
					t.Fatal(err)
				}
				w, err := s.ScheduleWithin(c.n, dl)
				if err != nil {
					t.Fatal(err)
				}
				if w.Len() != k {
					t.Fatalf("deadline %d: MaxTasks %d, ScheduleWithin schedules %d", dl, k, w.Len())
				}
				checkOracleTasks(t, c, dl, k)
				checkReplay(t, w, false)
				doc := verifiedBytes(t, w)
				qs = append(qs,
					query{op: service.OpMaxTasks, dl: dl, want: diffAnswer{tasks: k}, doc: doc},
					query{op: service.OpScheduleWithin, dl: dl, want: diffAnswer{tasks: k, makespan: w.Makespan()}, doc: doc})
			}

			for _, q := range qs {
				for _, e := range entries {
					// Scalar first (it memoises), then schedule-bearing.
					for _, withSched := range []bool{false, true} {
						resp, err := e.do(ctx, diffRequest(t, c.p, q.op, c.n, q.dl, withSched))
						if err != nil {
							t.Fatalf("%s %s deadline %d sched=%t: %v", e.name, q.op, q.dl, withSched, err)
						}
						got := diffAnswer{tasks: resp.Tasks, makespan: resp.Makespan}
						if got != q.want {
							t.Fatalf("%s %s deadline %d sched=%t: tasks %d makespan %d, NewSolver %d, %d",
								e.name, q.op, q.dl, withSched, got.tasks, got.makespan, q.want.tasks, q.want.makespan)
						}
						if !withSched {
							continue
						}
						if doc := compact(t, resp.Schedule); !bytes.Equal(doc, q.doc) {
							t.Fatalf("%s %s deadline %d: schedule differs from NewSolver's\n got %s\nwant %s",
								e.name, q.op, q.dl, doc, q.doc)
						}
						dec, err := resp.DecodeSchedule()
						if err != nil {
							t.Fatal(err)
						}
						verr := error(nil)
						if dec.Chain != nil {
							verr = dec.Chain.Verify()
						} else {
							verr = dec.Spider.Verify()
						}
						if verr != nil {
							t.Fatalf("%s %s deadline %d: infeasible: %v", e.name, q.op, q.dl, verr)
						}
					}
				}
			}
		})
	}
}

// verifiedBytes checks a facade schedule's feasibility and returns its
// wire document.
func verifiedBytes(t *testing.T, s repro.Schedule) []byte {
	t.Helper()
	if err := s.Verify(); err != nil {
		t.Fatalf("NewSolver schedule infeasible: %v", err)
	}
	return scheduleBytes(t, s)
}

// checkReplay replays a schedule in the discrete-event simulator, each
// task gated at its scheduled emission: the run must finish by the
// schedule's makespan, and exactly at it when the schedule is optimal
// (a tree's is optimal on its cover spider, the platform it is
// expressed on).
func checkReplay(t *testing.T, s repro.Schedule, optimal bool) {
	t.Helper()
	if s.Len() == 0 {
		return
	}
	var res *sim.Result
	var err error
	switch v := s.(type) {
	case *repro.ChainSchedule:
		res, err = sim.RunChain(v.Chain, v.Len(), sim.NewGatedFromChain("replay", v))
	case *repro.SpiderSchedule:
		res, err = sim.Run(v.Spider, v.Len(), sim.NewGatedFromSpider("replay", v))
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > s.Makespan() || (optimal && res.Makespan != s.Makespan()) {
		t.Fatalf("replay finishes at %d, schedule at %d (optimal %t)", res.Makespan, s.Makespan(), optimal)
	}
}

// checkOracleMakespan holds the optimal makespan to the exhaustive
// search: equal on chains, spiders, forks and spider-shaped trees, and
// never below the tree optimum on general trees.
func checkOracleMakespan(t *testing.T, c diffCase, mk repro.Time) {
	t.Helper()
	var want repro.Time
	var err error
	switch v := c.p.(type) {
	case repro.Chain:
		_, want, err = opt.BruteChain(v, c.n)
	case repro.Spider:
		_, want, err = opt.BruteSpider(v, c.n)
	case repro.Fork:
		_, want, err = opt.BruteFork(v, c.n)
	case repro.Tree:
		want, err = tree.Brute(v, c.n)
		if err == nil && !c.spiderShaped {
			if mk < want {
				t.Fatalf("tree makespan %d below the exhaustive optimum %d", mk, want)
			}
			return
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if mk != want {
		t.Fatalf("makespan %d, exhaustive search %d", mk, want)
	}
}

// checkOracleTasks holds the deadline task count to the exhaustive
// search on chains, spiders and forks (the tree brute force answers
// makespans only).
func checkOracleTasks(t *testing.T, c diffCase, dl repro.Time, k int) {
	t.Helper()
	var want int
	var err error
	switch v := c.p.(type) {
	case repro.Chain:
		want, err = opt.BruteChainMaxTasks(v, c.n, dl)
	case repro.Spider:
		want, err = opt.BruteSpiderMaxTasks(v, c.n, dl)
	case repro.Fork:
		want, err = opt.BruteForkMaxTasks(v, c.n, dl)
	default:
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if k != want {
		t.Fatalf("deadline %d: %d tasks, exhaustive search %d", dl, k, want)
	}
}
