package opt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/sim"
)

// allDests lists every processor of the spider as a destination, in
// (leg, depth) order.
func allDests(sp platform.Spider) []SpiderDest {
	var out []SpiderDest
	for b, leg := range sp.Legs {
		for k := 1; k <= leg.Len(); k++ {
			out = append(out, SpiderDest{Leg: b, Proc: k})
		}
	}
	return out
}

// destSeq is a quick.Generator producing a random chain together with a
// valid destination sequence on it.
type destSeq struct {
	Chain platform.Chain
	Dests []int
}

// Generate implements quick.Generator.
func (destSeq) Generate(r *rand.Rand, _ int) reflect.Value {
	p := 1 + r.Intn(4)
	nodes := make([]platform.Node, p)
	for i := range nodes {
		nodes[i] = platform.Node{
			Comm: platform.Time(1 + r.Intn(5)),
			Work: platform.Time(1 + r.Intn(5)),
		}
	}
	dests := make([]int, r.Intn(8))
	for i := range dests {
		dests[i] = 1 + r.Intn(p)
	}
	return reflect.ValueOf(destSeq{Chain: platform.Chain{Nodes: nodes}, Dests: dests})
}

// TestQuickForwardChainAlwaysFeasible ties the oracle's ASAP/FIFO
// realiser to the Definition 1 verifier: every forward simulation, for
// every destination sequence, must verify. The two components were
// implemented independently, so agreement here cross-checks both.
func TestQuickForwardChainAlwaysFeasible(t *testing.T) {
	prop := func(in destSeq) bool {
		s, err := ForwardChain(in.Chain, in.Dests)
		if err != nil {
			return false
		}
		if s.Verify() != nil {
			return false
		}
		// ASAP property: emissions on link 1 are back-to-back or later,
		// never overlapping (already in Verify), and the realised
		// destinations match the request.
		if s.Len() != len(in.Dests) {
			return false
		}
		for i, task := range s.Tasks {
			if task.Proc != in.Dests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestForwardMatchesSimReplay holds the forward model to code that
// shares nothing with it: on random chains, spiders and forks, the
// schedule of a random destination sequence must pass Definition 1
// (Verify), and its makespan must equal the event-driven simulator's
// ASAP replay of the same sequence.
func TestForwardMatchesSimReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2503))
	node := func() platform.Node {
		return platform.Node{Comm: platform.Time(1 + rng.Intn(6)), Work: platform.Time(1 + rng.Intn(9))}
	}
	chain := func(depth int) platform.Chain {
		nodes := make([]platform.Node, depth)
		for i := range nodes {
			nodes[i] = node()
		}
		return platform.Chain{Nodes: nodes}
	}
	for trial := 0; trial < 600; trial++ {
		var sp platform.Spider
		switch trial % 3 {
		case 0:
			sp = platform.NewSpider(chain(1 + rng.Intn(4)))
		case 1:
			for b := 1 + rng.Intn(3); b > 0; b-- {
				sp.Legs = append(sp.Legs, chain(1+rng.Intn(3)))
			}
		case 2:
			f := platform.Fork{}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				f.Slaves = append(f.Slaves, node())
			}
			sp = f.Spider()
		}
		all := allDests(sp)
		dests := make([]SpiderDest, rng.Intn(10))
		simDests := make([]sim.Dest, len(dests))
		for i := range dests {
			dests[i] = all[rng.Intn(len(all))]
			simDests[i] = sim.Dest{Leg: dests[i].Leg, Proc: dests[i].Proc}
		}
		res, err := sim.Run(sp, len(dests), sim.NewStatic("replay", simDests))
		if err != nil {
			t.Fatal(err)
		}

		s, err := ForwardSpider(sp, dests)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%v dests %v: infeasible: %v", sp, dests, err)
		}
		if s.Makespan() != res.Makespan {
			t.Fatalf("%v dests %v: forward makespan %d, sim %d", sp, dests, s.Makespan(), res.Makespan)
		}
		if sp.NumLegs() != 1 {
			continue
		}
		procs := make([]int, len(dests))
		for i, d := range dests {
			procs[i] = d.Proc
		}
		cs, err := ForwardChain(sp.Legs[0], procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Verify(); err != nil {
			t.Fatalf("%v dests %v: infeasible: %v", sp.Legs[0], procs, err)
		}
		if cs.Makespan() != res.Makespan {
			t.Fatalf("%v dests %v: forward makespan %d, sim %d", sp.Legs[0], procs, cs.Makespan(), res.Makespan)
		}
	}
}
