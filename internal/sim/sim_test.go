package sim

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/spider"
	"repro/internal/trace"
)

// staticFromChain replays a chain schedule's destinations.
func staticFromChain(name string, s *sched.ChainSchedule) *Static {
	dests := make([]Dest, 0, s.Len())
	for _, t := range s.Tasks {
		dests = append(dests, Dest{Leg: 0, Proc: t.Proc})
	}
	return NewStatic(name, dests)
}

func fig2Chain() platform.Chain { return platform.NewChain(2, 5, 3, 3) }

func twoLegSpider() platform.Spider {
	return platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(platform.Spider{}, 3, NewPull(1)); err == nil {
		t.Error("empty spider accepted")
	}
	if _, err := Run(twoLegSpider(), -1, NewPull(1)); err == nil {
		t.Error("negative n accepted")
	}
}

func TestStaticReplayHandChecked(t *testing.T) {
	// Chain (2,5)(3,3), destinations (2,1): identical to the opt
	// package's hand-checked ASAP forward run ending at 9.
	res, err := RunChain(fig2Chain(), 2, NewStatic("replay", []Dest{{0, 2}, {0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 9 {
		t.Errorf("makespan = %d, want 9", res.Makespan)
	}
	if res.Completions[0] != 8 || res.Completions[1] != 9 {
		t.Errorf("completions = %v, want [8 9]", res.Completions)
	}
	if err := trace.CheckOverlaps(res.Trace); err != nil {
		t.Errorf("trace overlaps: %v", err)
	}
}

func TestStaticReplayOfOptimalChainSequenceMatchesOptimum(t *testing.T) {
	// The DES realisation of the optimal destination sequence must land
	// exactly on the optimal makespan: ASAP can't be worse, optimality
	// says it can't be better. Links three independent code paths
	// (backward algorithm, DES, exhaustive oracle).
	g := platform.MustGenerator(42, 1, 9, platform.Bimodal)
	for trial := 0; trial < 10; trial++ {
		ch := g.Chain(1 + trial%4)
		n := 2 + trial%5
		s, err := core.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChain(ch, n, staticFromChain("optimal-replay", s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != s.Makespan() {
			t.Fatalf("%v n=%d: DES %d, schedule %d", ch, n, res.Makespan, s.Makespan())
		}
	}
}

func TestStaticReplayOfGreedyMatchesItsSchedule(t *testing.T) {
	// ForwardGreedy is itself an ASAP/FIFO construction, so the DES
	// replay of its destinations must reproduce its makespan exactly.
	g := platform.MustGenerator(7, 1, 11, platform.Uniform)
	for trial := 0; trial < 8; trial++ {
		ch := g.Chain(2 + trial%3)
		n := 5 + 2*trial
		s, err := baseline.ForwardGreedy{}.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChain(ch, n, staticFromChain("greedy-replay", s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != s.Makespan() {
			t.Fatalf("%v n=%d: DES %d, greedy schedule %d", ch, n, res.Makespan, s.Makespan())
		}
	}
}

func TestGatedReplayRespectsEmissionTimes(t *testing.T) {
	// Gating the optimal spider schedule at its own emission instants
	// must complete by the schedule's makespan (ASAP downstream can only
	// be earlier) and, because the schedule is optimal, exactly at it.
	sp := twoLegSpider()
	n := 5
	mk, s, err := spider.MinMakespan(sp, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sp, n, NewGatedFromSpider("gated-optimal", s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != mk {
		t.Errorf("gated DES makespan %d, optimal %d", res.Makespan, mk)
	}
	// Emissions must not precede the gates.
	order := emissionOrder(s)
	var emits []platform.Time
	for _, iv := range res.Trace {
		if iv.Resource == "master" {
			emits = append(emits, iv.Start)
		}
	}
	if len(emits) != n {
		t.Fatalf("master emitted %d sends, want %d", len(emits), n)
	}
	for i, idx := range order {
		if emits[i] < s.Tasks[idx].Comms[0] {
			t.Errorf("send %d at %d before its gate %d", i+1, emits[i], s.Tasks[idx].Comms[0])
		}
	}
}

func TestStaticSpiderReplayMatchesBruteForceOptimum(t *testing.T) {
	sp := twoLegSpider()
	for n := 1; n <= 4; n++ {
		sched, mk, err := opt.BruteSpider(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sp, n, NewStaticFromSpider("brute-replay", sched))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != mk {
			t.Fatalf("n=%d: DES %d, brute optimum %d", n, res.Makespan, mk)
		}
	}
}

func TestPullCompletesEverythingFeasibly(t *testing.T) {
	g := platform.MustGenerator(3, 1, 8, platform.Bimodal)
	for trial := 0; trial < 6; trial++ {
		sp := g.Spider(2+trial%3, 2)
		n := 10 + 5*trial
		res, err := Run(sp, n, NewPull(1+trial%3))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completions) != n {
			t.Fatalf("completed %d tasks, want %d", len(res.Completions), n)
		}
		if err := trace.CheckOverlaps(res.Trace); err != nil {
			t.Fatalf("pull trace overlaps: %v", err)
		}
		for i, c := range res.Completions {
			if c <= 0 {
				t.Fatalf("task %d has completion %d", i+1, c)
			}
		}
	}
}

func TestPullNeverBeatsOptimal(t *testing.T) {
	sp := twoLegSpider()
	for _, n := range []int{3, 6, 10} {
		mk, _, err := spider.MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, credits := range []int{1, 2, 3} {
			res, err := Run(sp, n, NewPull(credits))
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < mk {
				t.Errorf("n=%d credits=%d: pull %d beats optimal %d", n, credits, res.Makespan, mk)
			}
		}
	}
}

func TestPullPipeliningHelpsOnDeepChain(t *testing.T) {
	// With a single credit a deep node is idle while its next task
	// travels; a second credit hides the latency. Links must be fast
	// relative to computation or the first link is the bottleneck and
	// credits are irrelevant — hence a compute-bound chain.
	ch := platform.NewChain(1, 10, 1, 10, 1, 10)
	res1, err := RunChain(ch, 30, NewPull(1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunChain(ch, 30, NewPull(2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan >= res1.Makespan {
		t.Errorf("credits=2 makespan %d not better than credits=1 %d", res2.Makespan, res1.Makespan)
	}
}

func TestRandomPushCompletesAndIsDeterministic(t *testing.T) {
	sp := twoLegSpider()
	a, err := Run(sp, 12, NewRandomPush(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp, 12, NewRandomPush(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different makespans: %d vs %d", a.Makespan, b.Makespan)
	}
	if err := trace.CheckOverlaps(a.Trace); err != nil {
		t.Errorf("trace overlaps: %v", err)
	}
}

func TestUtilisationAccounting(t *testing.T) {
	// Master-only destinations on the fixture chain: proc 1 busy n*w,
	// link 1 busy n*c.
	n := 4
	dests := make([]Dest, n)
	for i := range dests {
		dests[i] = Dest{0, 1}
	}
	res, err := RunChain(fig2Chain(), n, NewStatic("master-only", dests))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Utilisation["leg 0 proc 1"]; got != platform.Time(n)*5 {
		t.Errorf("proc busy %d, want %d", got, n*5)
	}
	if got := res.Utilisation["leg 0 link 1"]; got != platform.Time(n)*2 {
		t.Errorf("link busy %d, want %d", got, n*2)
	}
	if got := res.Utilisation["master"]; got != platform.Time(n)*2 {
		t.Errorf("master busy %d, want %d", got, n*2)
	}
}

func TestPolicyStarvationIsAnError(t *testing.T) {
	_, err := Run(twoLegSpider(), 2, NewStatic("too-short", []Dest{{0, 1}}))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("starved run did not error: %v", err)
	}
}

func TestInvalidPolicyDestinationIsAnError(t *testing.T) {
	_, err := Run(twoLegSpider(), 1, NewStatic("bad", []Dest{{7, 1}}))
	if err == nil || !strings.Contains(err.Error(), "invalid destination") {
		t.Errorf("invalid destination not reported: %v", err)
	}
}

func TestZeroTasksRun(t *testing.T) {
	res, err := Run(twoLegSpider(), 0, NewPull(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || len(res.Completions) != 0 {
		t.Errorf("n=0: makespan %d completions %d", res.Makespan, len(res.Completions))
	}
}

func TestGatedReplayOfOptimalSpiderOnRandomInstances(t *testing.T) {
	// Random spiders: gating the optimal schedule at its own emission
	// instants must reproduce the optimal makespan exactly through the
	// independent DES path.
	g := platform.MustGenerator(909, 1, 7, platform.Bimodal)
	for trial := 0; trial < 8; trial++ {
		sp := g.Spider(2+trial%3, 3)
		n := 4 + 3*trial
		mk, s, err := spider.MinMakespan(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sp, n, NewGatedFromSpider("gated", s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != mk {
			t.Fatalf("%v n=%d: DES %d, optimal %d", sp, n, res.Makespan, mk)
		}
		if err := trace.CheckOverlaps(res.Trace); err != nil {
			t.Fatalf("trace overlaps: %v", err)
		}
	}
}
