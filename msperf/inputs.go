package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/platform"
	"repro/internal/service"
)

// Platform families. They name the family.<f>.latency_p50_us metrics:
// dup-heavy spiders repeat at most four leg shapes (isomorphic-leg
// dedup collapses their construction), distinct spiders draw every leg
// independently.
const (
	famDup      = "dup-heavy"
	famDistinct = "distinct"
	famFork     = "fork"
	famChain    = "chain"
	famTree     = "tree"
)

var families = []string{famDup, famDistinct, famFork, famChain, famTree}

// Request classes. They name the class.<c>.latency_p50_us metrics.
const (
	classMemo     uint8 = iota // exact scalar repeat: answered from the memo
	classSolve                 // fresh scalar query: a warm or cold solve
	classSchedule              // schedule-bearing query: never memoised
)

var classNames = []string{"memo", "solve", "schedule"}

// Op codes, kept as bytes so streams stay compact.
const (
	opMin uint8 = iota
	opMax
	opWithin
)

var opNames = []service.Op{service.OpMinMakespan, service.OpMaxTasks, service.OpScheduleWithin}

// memoCap mirrors the service's per-entry memo bound. Every workload
// keeps each platform's distinct scalar queries below it, so memo
// resets never make the hit share depend on run length.
const memoCap = 4096

// plat is one generated platform and its wire envelope.
type plat struct {
	fam     string
	p       repro.Platform // set only while generating
	payload []byte
	hash    platform.Hash
	procs   int
}

func newPlat(fam string, p repro.Platform) plat {
	var buf bytes.Buffer
	var err error
	procs := 0
	switch v := p.(type) {
	case platform.Chain:
		err, procs = platform.WriteChain(&buf, v), v.Len()
	case platform.Spider:
		err, procs = platform.WriteSpider(&buf, v), v.NumProcs()
	case platform.Fork:
		err, procs = platform.WriteFork(&buf, v), v.Len()
	case platform.Tree:
		err, procs = platform.WriteTree(&buf, v), v.NumProcs()
	default:
		err = fmt.Errorf("unsupported platform %T", p)
	}
	if err != nil {
		// Generated platforms are valid by construction.
		panic(fmt.Sprintf("msperf: encoding %s platform: %v", fam, err))
	}
	return plat{fam: fam, p: p, payload: buf.Bytes(), hash: p.Hash(), procs: procs}
}

// query is one request of a stream: a platform index, a class and the
// (op, n, deadline) key.
type query struct {
	plat     int32
	class    uint8
	op       uint8
	n        int32
	deadline platform.Time
}

func (q query) request(ps []plat) *service.Request {
	r := &service.Request{Platform: ps[q.plat].payload, Op: opNames[q.op], N: int(q.n)}
	if q.op != opMin {
		r.Deadline = q.deadline
	}
	r.IncludeSchedule = q.class == classSchedule
	return r
}

// qkey identifies a distinct query; the exactness gate answers each once.
type qkey struct {
	plat     int32
	op       uint8
	n        int32
	deadline platform.Time
	sched    bool
}

func (q query) key() qkey {
	k := qkey{plat: q.plat, op: q.op, n: q.n, sched: q.class == classSchedule}
	if q.op != opMin {
		k.deadline = q.deadline
	}
	return k
}

// inputs is one workload's generated input: its platforms, the request
// stream of each closed-loop client, and the set-up queries.
type inputs struct {
	plats   []plat
	streams [][]query // one per closed-loop client
	// warm lists the queries set-up sends before the timed phase.
	warm []query
	// primers are cold-build's set-up platforms, never in a stream.
	primers []plat
	// warmN is each warm-probe platform's largest task count, which
	// the pre-restart solvers are warmed to.
	warmN []int32
}

// encodeStreams serialises the generated input byte for byte: the
// platform envelopes, then every query of every stream. Equal seeds
// must give equal bytes.
func (in *inputs) encodeStreams() []byte {
	var b bytes.Buffer
	for _, p := range in.plats {
		b.WriteString(p.fam)
		b.Write(p.payload)
	}
	for _, p := range in.primers {
		b.Write(p.payload)
	}
	for _, qs := range append([][]query{in.warm}, in.streams...) {
		for _, q := range qs {
			var rec [18]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(q.plat))
			rec[4], rec[5] = q.class, q.op
			binary.LittleEndian.PutUint32(rec[6:], uint32(q.n))
			binary.LittleEndian.PutUint64(rec[10:], uint64(q.deadline))
			b.Write(rec[:])
		}
	}
	return b.Bytes()
}

// perm is a deterministic bijection of [0, size): k ↦ (k·stride) mod
// size with stride coprime to size, so consecutive keys jump across the
// range instead of drifting through it.
func perm(k, size int) int {
	stride := size/3 + 1
	for gcd(stride, size) != 1 {
		stride++
	}
	return (k * stride) % size
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lowerBound is the platform's proven makespan lower bound for n
// tasks, at least 1: the scale every generated deadline is drawn on.
func lowerBound(p repro.Platform, n int) platform.Time {
	lb, err := p.LowerBound(n)
	if err != nil {
		panic(fmt.Sprintf("msperf: lower bound: %v", err))
	}
	return max(lb, 1)
}

func scale(t platform.Time, f float64) platform.Time {
	return max(platform.Time(math.Round(float64(t)*f)), 1)
}

// dupSpider spreads legs over four leg shapes of depths 1 to 3.
func dupSpider(g *platform.Generator, rng *rand.Rand, legs int) platform.Spider {
	shapes := []platform.Chain{g.Chain(1), g.Chain(2), g.Chain(3), g.Chain(3)}
	ls := make([]platform.Chain, legs)
	for i := range ls {
		ls[i] = shapes[i%len(shapes)]
	}
	rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
	return platform.NewSpider(ls...)
}

// genPlatform draws one platform of the family with about size
// processors (legs for spiders, slaves for forks, nodes for chains;
// trees take size as their depth and branch 3).
func genPlatform(fam string, g *platform.Generator, rng *rand.Rand, size int) plat {
	switch fam {
	case famChain:
		return newPlat(fam, g.Chain(size))
	case famDistinct:
		return newPlat(fam, g.Spider(size, 3))
	case famDup:
		return newPlat(fam, dupSpider(g, rng, size))
	case famFork:
		return newPlat(fam, g.Fork(size))
	case famTree:
		// Redraw until the tree has between 4 and 8 nodes per level, so
		// its size varies little between seeds.
		for {
			t := g.Tree(size, 3)
			if n := t.NumProcs(); n >= 4*size && n <= 8*size {
				return newPlat(fam, t)
			}
		}
	}
	panic("msperf: unknown family " + fam)
}

// tinyPlatform draws a platform of at most four processors, small
// enough for the brute-force oracles.
func tinyPlatform(fam string, g *platform.Generator, rng *rand.Rand) plat {
	switch fam {
	case famChain:
		return newPlat(fam, g.Chain(2+rng.Intn(2)))
	case famDistinct:
		return newPlat(fam, g.Spider(2, 2))
	case famDup:
		leg := g.Chain(1)
		return newPlat(fam, platform.NewSpider(leg, leg, leg))
	case famFork:
		return newPlat(fam, g.Fork(2+rng.Intn(3)))
	default:
		for {
			t := g.Tree(2, 2)
			if t.NumProcs() <= 4 {
				return newPlat(fam, t)
			}
		}
	}
}

func seededRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// Serve-warm plan: shares of the request classes and the stream budget.
const (
	serveWarmPlatforms = 64
	serveMemoShare     = 0.70
	serveSolveShare    = 0.25
	// serveRateCap bounds the ops/s a stream is sized for; a faster
	// host ends its timed phase when the stream runs out.
	serveRateCap = 8000
	hotPerPlat   = 6
)

// serveWarmPlan is the per-platform query design of serve-warm.
type serveWarmPlan struct {
	hot   [][]query // memo class: answered in set-up, repeated verbatim
	sched [][]query // schedule class: repeated, never memoised
	// fresh query k of platform p is max_tasks(freshN[k%4], dLo+perm(k/4)).
	freshN  [][4]int32
	dLo     []platform.Time
	span    []int
	nextNew []int
}

func (pl *serveWarmPlan) fresh(p int) (query, bool) {
	k := pl.nextNew[p]
	if k >= 4*pl.span[p] {
		return query{}, false
	}
	pl.nextNew[p]++
	d := pl.dLo[p] + platform.Time(perm(k/4, pl.span[p]))
	return query{plat: int32(p), class: classSolve, op: opMax, n: pl.freshN[p][k%4], deadline: d}, true
}

// genServeWarm builds serve-warm: 64 small and mid-size platforms of
// all four kinds, Zipf-skewed, with 70% exact scalar repeats, 25% fresh
// scalar queries and 5% schedule-bearing queries.
func genServeWarm(seed int64, seconds int) *inputs {
	rng := seededRand(seed, 1)
	g := platform.MustGenerator(seed, 1, 20, platform.Uniform)
	in := &inputs{}
	kinds := []string{famChain, famDup, famDistinct, famFork, famTree, famFork, famChain, famTree}
	for i := 0; i < serveWarmPlatforms; i++ {
		fam := kinds[i%len(kinds)]
		if i < len(kinds) {
			in.plats = append(in.plats, tinyPlatform(fam, g, rng))
			continue
		}
		// Sizes and task counts are fixed per slot, so the seed changes
		// node values and the request sequence, not the load.
		size := 4 + i*7%29
		switch fam {
		case famTree:
			size = 3
		case famChain:
			size = 4 + i*7%21
		}
		in.plats = append(in.plats, genPlatform(fam, g, rng, size))
	}
	pl := &serveWarmPlan{}
	for i, p := range in.plats {
		nMax := int32(32 + i*37%97)
		if i < len(kinds) {
			nMax = int32(6 + i%3)
		}
		lb := lowerBound(p.p, int(nMax))
		lb1 := lowerBound(p.p, int(nMax-1))
		ip := int32(i)
		hot := []query{
			{plat: ip, class: classMemo, op: opMin, n: nMax},
			{plat: ip, class: classMemo, op: opMin, n: nMax / 2},
			{plat: ip, class: classMemo, op: opMin, n: nMax/4 + 1},
			{plat: ip, class: classMemo, op: opMax, n: nMax - 1, deadline: scale(lb1, 0.8)},
			{plat: ip, class: classMemo, op: opMax, n: nMax - 1, deadline: scale(lb1, 1.0) + 1},
			{plat: ip, class: classMemo, op: opMax, n: nMax - 1, deadline: scale(lb1, 1.25) + 2},
		}
		pl.hot = append(pl.hot, hot)
		pl.sched = append(pl.sched, []query{
			{plat: ip, class: classSchedule, op: opWithin, n: nMax, deadline: scale(lb, 1.1)},
			{plat: ip, class: classSchedule, op: opMin, n: nMax / 2},
		})
		pl.freshN = append(pl.freshN, [4]int32{nMax, nMax / 2, 3 * nMax / 4, max(nMax/4, 1)})
		pl.dLo = append(pl.dLo, max(lb/2, 1))
		pl.span = append(pl.span, min(max(int(lb), 16), 700))
		pl.nextNew = append(pl.nextNew, 0)
		in.warm = append(in.warm, hot...)
	}
	// Zipf ranks over a fixed spread of the slots, so the hot set
	// mixes kinds and sizes the same way for every seed.
	rank := make([]int, len(in.plats))
	for r := range rank {
		rank[r] = (r*13 + len(kinds)) % len(in.plats)
	}
	cum := make([]float64, len(rank))
	total := 0.0
	for r := range rank {
		total += math.Pow(float64(r+3), -1.1)
		cum[r] = total
	}
	draw := func() int {
		u := rng.Float64() * total
		r := 0
		for r < len(cum)-1 && cum[r] < u {
			r++
		}
		return r
	}
	var stream []query
	for i := 0; i < seconds*serveRateCap; i++ {
		r := draw()
		p := rank[r]
		u := rng.Float64()
		var q query
		switch {
		case u < serveMemoShare:
			q = pl.hot[p][rng.Intn(hotPerPlat)]
		case u < serveMemoShare+serveSolveShare:
			// A platform whose fresh keys are spent hands the query to
			// the next rank down, so no memo ever overflows.
			ok := false
			for j := 0; j < len(rank) && !ok; j++ {
				q, ok = pl.fresh(rank[(r+j)%len(rank)])
			}
			if !ok {
				q = pl.hot[p][rng.Intn(hotPerPlat)]
			}
		default:
			q = pl.sched[p][rng.Intn(len(pl.sched[p]))]
		}
		stream = append(stream, q)
	}
	in.streams = [][]query{stream}
	return in
}

// Warm-probe plan: each client owns one platform per (family, size)
// slot; sizes are fixed so seeds change values, not the load.
var warmProbeSlots = []struct {
	fam  string
	size int
}{
	{famDup, 256}, {famDup, 320}, {famDup, 384}, {famDup, 448},
	{famDistinct, 384}, {famDistinct, 512}, {famDistinct, 768}, {famDistinct, 1024},
	{famFork, 512}, {famFork, 640}, {famFork, 896}, {famFork, 1024},
}

const (
	probeMaxShare  = 0.65 // max_tasks deadline walks
	probeMinShare  = 0.25 // varied-n min_makespan
	probeRateCap   = 400  // per-client ops/s the stream is sized for
	probeFirstN    = 1    // the restart's first query per platform
	probeSchedFrac = 4    // schedule_within asks for nMax/probeSchedFrac tasks
)

// genWarmProbe builds warm-probe: wide dup-heavy and distinct-leg
// spiders and wide forks, partitioned between the two clients, queried
// only with keys no earlier query used, so every query misses the memo
// of an already-warm solver.
func genWarmProbe(seed int64, seconds int) *inputs {
	rng := seededRand(seed, 2)
	g := platform.MustGenerator(seed, 1, 30, platform.Uniform)
	in := &inputs{}
	type keys struct {
		nMax        int32
		lbMax, lbSw platform.Time
		spanMax     int
		spanSw      int
		kMax, kMin  int
		kSw         int
	}
	var ks []*keys
	in.streams = make([][]query, 2)
	// Client c owns platforms [c·len(slots), (c+1)·len(slots)).
	for range in.streams {
		for _, s := range warmProbeSlots {
			p := genPlatform(s.fam, g, rng, s.size)
			nMax := int32(s.size)
			k := &keys{nMax: nMax,
				lbMax: lowerBound(p.p, int(nMax)),
				lbSw:  lowerBound(p.p, int(nMax)/probeSchedFrac)}
			k.spanMax = max(int(k.lbMax)*2/5, 64)
			k.spanSw = max(int(k.lbSw)*2/5, 64)
			in.plats = append(in.plats, p)
			in.warmN = append(in.warmN, nMax)
			in.warm = append(in.warm, query{plat: int32(len(in.plats) - 1), class: classSolve, op: opMax, n: probeFirstN, deadline: k.lbMax})
			ks = append(ks, k)
		}
	}
	per := len(warmProbeSlots)
	for c := range in.streams {
		for i := 0; i < seconds*probeRateCap; i++ {
			pi := c*per + rng.Intn(per)
			k := ks[pi]
			u := rng.Float64()
			q := query{plat: int32(pi)}
			switch {
			case u < probeMaxShare && k.kMax < k.spanMax:
				q.class, q.op, q.n = classSolve, opMax, k.nMax
				q.deadline = k.lbMax*3/5 + platform.Time(perm(k.kMax, k.spanMax))
				k.kMax++
			case u < probeMaxShare+probeMinShare && k.kMin < int(k.nMax)/2:
				q.class, q.op = classSolve, opMin
				q.n = k.nMax/2 + int32(perm(k.kMin, int(k.nMax)/2))
				k.kMin++
			case k.kSw < k.spanSw:
				q.class, q.op, q.n = classSchedule, opWithin, k.nMax/probeSchedFrac
				q.deadline = k.lbSw*3/5 + platform.Time(perm(k.kSw, k.spanSw))
				k.kSw++
			default:
				continue
			}
			in.streams[c] = append(in.streams[c], q)
		}
	}
	return in
}

// Cold-build plan. Each client walks coldCycle: a fixed order of
// families (shares by count chosen so no family takes more than about
// half the time) and, per family, a fixed size cycle. The seed draws
// only node values, so the set of warmed solvers left in the LRU at
// the end of a run, and the latency mix, do not depend on where the
// run stopped.
var (
	coldCycle = []string{
		famChain, famDistinct, famFork, famTree, famDup,
		famChain, famFork, famTree, famDistinct, famChain,
		famDup, famFork, famTree, famChain, famDistinct,
		famFork, famDup, famTree, famChain, famDistinct,
		famFork, famTree, famChain, famDup, famTree,
	}
	coldSizes = map[string][]int{
		famChain:    {40, 56, 72, 88},
		famDistinct: {36, 48, 60, 72},
		famDup:      {36, 48, 60, 72},
		famFork:     {48, 64, 80, 96, 112},
		famTree:     {4},
	}
)

const (
	coldRateCap = 600 // per-client ops/s the stream is sized for
	// coldTinyEvery makes every coldTinyEvery-th request a platform
	// small enough for the brute-force oracles.
	coldTinyEvery = 20
)

// genColdBuild builds cold-build: every request a platform no earlier
// request used (distinct platform.Hash), answered once with
// min_makespan. Set-up primes one cycle's worth of extra platforms.
func genColdBuild(seed int64, seconds int) *inputs {
	rng := seededRand(seed, 3)
	g := platform.MustGenerator(seed, 1, 30, platform.Uniform)
	in := &inputs{}
	seen := map[platform.Hash]bool{}
	fresh := func(mk func() plat) plat {
		for {
			p := mk()
			if !seen[p.hash] {
				seen[p.hash] = true
				return p
			}
		}
	}
	// occ[s] counts the cycle's earlier slots of slot s's family, so
	// successive requests of one family step through its sizes and any
	// window of a cycle holds every size.
	occ := make([]int, len(coldCycle))
	perCycle := map[string]int{}
	for s, fam := range coldCycle {
		occ[s] = perCycle[fam]
		perCycle[fam]++
	}
	draw := func(i int) (plat, int) {
		s := i % len(coldCycle)
		fam := coldCycle[s]
		if i%coldTinyEvery == coldTinyEvery-1 {
			return fresh(func() plat { return tinyPlatform(fam, g, rng) }), 2 + i/coldTinyEvery%4
		}
		sizes := coldSizes[fam]
		size := sizes[(i/len(coldCycle)*perCycle[fam]+occ[s])%len(sizes)]
		p := fresh(func() plat { return genPlatform(fam, g, rng, size) })
		return p, 2 * p.procs
	}
	for i := range coldCycle {
		p, _ := draw(i)
		in.primers = append(in.primers, p)
	}
	in.streams = make([][]query, 2)
	for c := range in.streams {
		for i := 0; i < seconds*coldRateCap; i++ {
			// The clients start half a cycle apart.
			p, n := draw(i + c*len(coldCycle)/2)
			in.plats = append(in.plats, p)
			in.streams[c] = append(in.streams[c], query{plat: int32(len(in.plats) - 1), class: classSolve, op: opMin, n: int32(n)})
		}
	}
	return in
}

// generate dispatches on the workload name.
func generate(workload string, seed int64, seconds int) (*inputs, error) {
	var in *inputs
	switch workload {
	case wServeWarm:
		in = genServeWarm(seed, seconds)
	case wWarmProbe:
		in = genWarmProbe(seed, seconds)
	case wColdBuild:
		in = genColdBuild(seed, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, wServeWarm, wWarmProbe, wColdBuild)
	}
	// Keep only the wire form. Tens of thousands of live platform
	// values would add their pointers to every collection the program
	// under test runs; the gate decodes the payloads instead.
	for i := range in.plats {
		in.plats[i].p = nil
	}
	for i := range in.primers {
		in.primers[i].p = nil
	}
	return in, nil
}
