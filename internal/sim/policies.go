package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/sched"
)

// Static replays a fixed destination sequence as fast as the master's
// port allows (ASAP). Replaying the destination sequence of an offline
// schedule cross-validates it: the ASAP realisation can only finish
// earlier, and for an optimal sequence it finishes at exactly the
// optimal makespan.
type Static struct {
	name  string
	dests []Dest
	next  int
}

// NewStatic builds a Static policy; name labels the result.
func NewStatic(name string, dests []Dest) *Static {
	return &Static{name: name, dests: dests}
}

// NewStaticFromSpider replays a spider schedule's destinations in
// emission order.
func NewStaticFromSpider(name string, s *sched.SpiderSchedule) *Static {
	order := emissionOrder(s)
	dests := make([]Dest, 0, s.Len())
	for _, idx := range order {
		t := s.Tasks[idx]
		dests = append(dests, Dest{Leg: t.Leg, Proc: t.Proc})
	}
	return NewStatic(name, dests)
}

// Name implements Policy.
func (p *Static) Name() string { return p.name }

// Reset implements Policy.
func (p *Static) Reset(platform.Spider, int) { p.next = 0 }

// Next implements Policy.
func (p *Static) Next(platform.Time) (Dest, platform.Time, bool) {
	if p.next >= len(p.dests) {
		return Dest{}, 0, false
	}
	d := p.dests[p.next]
	p.next++
	return d, 0, true
}

// TaskDone implements Policy.
func (p *Static) TaskDone(platform.Time, Dest) {}

// Gated replays a destination sequence with per-task earliest emission
// times — the exact emission instants of an offline schedule. The
// simulated run must finish no later than the offline schedule says.
type Gated struct {
	name  string
	dests []Dest
	emit  []platform.Time
	next  int
}

// NewGatedFromSpider gates each task at its scheduled emission time.
func NewGatedFromSpider(name string, s *sched.SpiderSchedule) *Gated {
	order := emissionOrder(s)
	g := &Gated{name: name}
	for _, idx := range order {
		t := s.Tasks[idx]
		g.dests = append(g.dests, Dest{Leg: t.Leg, Proc: t.Proc})
		g.emit = append(g.emit, t.Comms[0])
	}
	return g
}

// NewGatedFromChain gates each task at its scheduled emission time.
func NewGatedFromChain(name string, s *sched.ChainSchedule) *Gated {
	g := &Gated{name: name}
	for _, t := range s.Tasks {
		g.dests = append(g.dests, Dest{Leg: 0, Proc: t.Proc})
		g.emit = append(g.emit, t.Comms[0])
	}
	return g
}

// Name implements Policy.
func (p *Gated) Name() string { return p.name }

// Reset implements Policy.
func (p *Gated) Reset(platform.Spider, int) { p.next = 0 }

// Next implements Policy: it commits only when the gate has opened.
func (p *Gated) Next(now platform.Time) (Dest, platform.Time, bool) {
	if p.next >= len(p.dests) {
		return Dest{}, 0, false
	}
	d, at := p.dests[p.next], p.emit[p.next]
	if at > now {
		return d, at, true // wait hint; not consumed
	}
	p.next++
	return d, 0, true
}

// TaskDone implements Policy.
func (p *Gated) TaskDone(platform.Time, Dest) {}

// Pull is the demand-driven policy of real volunteer-computing masters:
// every processor starts with a fixed number of credits (outstanding
// task requests) and asks for a new task each time it completes one.
// The master serves requests first-come-first-served.
type Pull struct {
	credits int
	queue   []Dest
}

// NewPull builds a demand-driven policy with the given number of
// initial credits per processor (1 = no pipelining, 2 lets a node
// receive its next task while computing).
func NewPull(credits int) *Pull {
	if credits < 1 {
		credits = 1
	}
	return &Pull{credits: credits}
}

// Name implements Policy; it carries the credit count so result tables
// can distinguish pipelining depths.
func (p *Pull) Name() string { return fmt.Sprintf("pull(credits=%d)", p.credits) }

// Reset implements Policy: initial requests arrive round-robin over
// processors (one credit per round) so no node is structurally starved.
func (p *Pull) Reset(sp platform.Spider, _ int) {
	p.queue = p.queue[:0]
	for round := 0; round < p.credits; round++ {
		for b, leg := range sp.Legs {
			for d := 1; d <= leg.Len(); d++ {
				p.queue = append(p.queue, Dest{Leg: b, Proc: d})
			}
		}
	}
}

// Next implements Policy.
func (p *Pull) Next(platform.Time) (Dest, platform.Time, bool) {
	if len(p.queue) == 0 {
		return Dest{}, 0, false
	}
	d := p.queue[0]
	p.queue = p.queue[1:]
	return d, 0, true
}

// TaskDone implements Policy: completing a task re-requests one.
func (p *Pull) TaskDone(_ platform.Time, d Dest) {
	p.queue = append(p.queue, d)
}

// RandomPush sends every task to a uniformly random processor — the
// weakest sensible baseline, useful as a sanity floor in experiments.
type RandomPush struct {
	seed int64
	rng  *rand.Rand
	all  []Dest
}

// NewRandomPush builds the policy with a deterministic seed.
func NewRandomPush(seed int64) *RandomPush { return &RandomPush{seed: seed} }

// Name implements Policy.
func (p *RandomPush) Name() string { return "random-push" }

// Reset implements Policy.
func (p *RandomPush) Reset(sp platform.Spider, _ int) {
	p.rng = rand.New(rand.NewSource(p.seed))
	p.all = p.all[:0]
	for b, leg := range sp.Legs {
		for d := 1; d <= leg.Len(); d++ {
			p.all = append(p.all, Dest{Leg: b, Proc: d})
		}
	}
}

// Next implements Policy.
func (p *RandomPush) Next(platform.Time) (Dest, platform.Time, bool) {
	return p.all[p.rng.Intn(len(p.all))], 0, true
}

// TaskDone implements Policy.
func (p *RandomPush) TaskDone(platform.Time, Dest) {}

// emissionOrder returns task indices sorted by first emission time
// (stable on ties), i.e. the order the master must send them.
func emissionOrder(s *sched.SpiderSchedule) []int {
	order := make([]int, s.Len())
	for i := range order {
		order[i] = i
	}
	// Insertion sort keeps this dependency-free and stable; schedules
	// replayed through the simulator are small.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.Tasks[order[j]].Comms[0] < s.Tasks[order[j-1]].Comms[0]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}
