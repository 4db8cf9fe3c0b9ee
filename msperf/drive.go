package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Request paths. Untraced runs use each workload's production path:
// routed for serve-warm, in-process for the others.
const (
	pathRouted uint8 = iota // client.Client → cluster.Router → owner shard
	pathDirect              // client.Client → owner shard
	pathInproc              // service.Service.Solve on the owner
)

var pathSpan = []string{"client.Do routed", "client.Do direct", "Service.Solve"}

// span is one timed interval. Children of a request share its Req.
// Durations the program reports about itself (meta.solve_ns,
// meta.cost.phase_ns) are recorded as child spans placed at their
// parent's start.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; one per goroutine, so no locking.
// IDs carry the recorder's base, so they stay unique when merged.
type recorder struct {
	epoch time.Time
	base  int64
	spans []span
}

func newRecorder(epoch time.Time, base int64) *recorder {
	return &recorder{epoch: epoch, base: base << 40}
}

func (r *recorder) open(name string, req, parent int64) int64 {
	id := r.base | int64(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: time.Since(r.epoch).Nanoseconds()})
	return id
}

func (r *recorder) close(id int64) int64 {
	s := &r.spans[id&(1<<40-1)]
	s.End = time.Since(r.epoch).Nanoseconds()
	return s.End - s.Start
}

func (r *recorder) child(name string, req, parent, dur int64) int64 {
	start := r.spans[parent&(1<<40-1)].Start
	id := r.base | int64(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: start, End: start + dur})
	return id
}

// writeSpans writes every recorder's spans as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// outcome is what one request returned, kept compact.
type outcome struct {
	q        int32 // index into the client's stream
	path     uint8
	traced   bool
	failed   bool // error or degraded answer
	memo     bool
	tasks    int32
	makespan platform.Time
	lat      int64 // client-observed, ns; on the in-process path, Service.Solve's
	decodeNs int64 // platform.Read + Hash of the payload (traced only), ns
	solveNs  int64 // meta.solve_ns
	probes   int32
	packs    int32
	rewinds  int32
	phase    [obs.NumPhases]int64
	sched    int32 // index into the worker's schedule store, -1 for none
}

// worker is one closed-loop client: it sends the next request of its
// stream only after the previous one answered.
type worker struct {
	id     int
	stream []query
	plats  []plat
	route  *targets
	rng    *rand.Rand // trace and path coins; nil when untraced
	mainP  uint8
	rec    *recorder
	out    []outcome
	errs   []string
	// scheds stores each distinct returned schedule for the gate.
	scheds   [][]byte
	schedKey map[qkey][]int32
	held     atomic.Int64 // bytes in scheds, read by the heap sampler
}

func newWorker(id int, in *inputs, mainPath uint8, traceSeed int64, epoch time.Time) *worker {
	w := &worker{id: id, stream: in.streams[id], plats: in.plats, mainP: mainPath,
		out: make([]outcome, 0, len(in.streams[id])), schedKey: map[qkey][]int32{}}
	if traceSeed != 0 {
		w.rng = rand.New(rand.NewSource(traceSeed*31 + int64(id)))
		w.rec = newRecorder(epoch, int64(id))
	}
	return w
}

// targets are where each path sends a platform's requests.
type targets struct {
	routed *client.Client
	direct []*client.Client   // by platform
	svc    []*service.Service // owner shard by platform
	fleet  bool               // routed and direct paths exist
}

// coins decides, for a traced run, whether this request records spans
// (3 in 4) and which path a traced serve-warm request takes (router,
// direct shard or in-process, 1 in 3 each).
func (w *worker) coins() (bool, uint8) {
	if w.rng == nil {
		return false, w.mainP
	}
	traced := w.rng.Intn(4) != 0
	path := w.mainP
	if traced && w.route.fleet {
		path = uint8(w.rng.Intn(3))
	}
	return traced, path
}

func (w *worker) run(stop time.Time) {
	ctx := context.Background()
	for i, q := range w.stream {
		if !time.Now().Before(stop) {
			return
		}
		req := q.request(w.plats)
		traced, path := w.coins()
		o := outcome{q: int32(i), path: path, traced: traced, sched: -1}
		reqID := int64(w.id)<<40 | int64(i)
		var top int64
		if traced {
			d := w.rec.open("platform.decode", reqID, -1)
			r := w.rec.open("platform.Read", reqID, d)
			dec, err := platform.Read(bytes.NewReader(req.Platform))
			w.rec.close(r)
			h := w.rec.open("platform.Hash", reqID, d)
			if err == nil {
				_ = dec.Hash()
			}
			w.rec.close(h)
			o.decodeNs = w.rec.close(d)
			top = w.rec.open("request", reqID, -1)
		}
		var resp *service.Response
		var err error
		var ps int64
		if traced {
			ps = w.rec.open(pathSpan[path], reqID, top)
		}
		start := time.Now()
		switch path {
		case pathRouted:
			resp, err = w.route.routed.Do(ctx, req)
		case pathDirect:
			resp, err = w.route.direct[q.plat].Do(ctx, req)
		default:
			resp, err = w.route.svc[q.plat].Solve(ctx, req)
		}
		o.lat = time.Since(start).Nanoseconds()
		if traced {
			w.rec.close(ps)
			w.rec.close(top)
		}
		switch {
		case err != nil:
			o.failed = true
			if len(w.errs) < 5 {
				w.errs = append(w.errs, err.Error())
			}
		case resp.Degraded:
			o.failed = true
			if len(w.errs) < 5 {
				w.errs = append(w.errs, fmt.Sprintf("degraded answer (%s bound)", resp.Bound))
			}
		default:
			w.record(&o, q, resp)
			if traced {
				w.traceMeta(&o, reqID, ps)
			}
		}
		w.out = append(w.out, o)
	}
}

// record copies the answer and its meta into the outcome and stores
// each distinct schedule once per query key.
func (w *worker) record(o *outcome, q query, resp *service.Response) {
	o.memo = resp.Meta.Memo
	o.tasks = int32(resp.Tasks)
	o.makespan = resp.Makespan
	o.solveNs = resp.Meta.SolveNs
	if c := resp.Meta.Cost; c != nil {
		o.probes, o.packs, o.rewinds = int32(c.Probes), int32(c.PackProbes), int32(c.RewindHits)
		for _, p := range obs.Phases() {
			o.phase[p] = c.PhaseNs[p.String()]
		}
	}
	if q.class != classSchedule {
		return
	}
	k := q.key()
	for _, idx := range w.schedKey[k] {
		if bytes.Equal(w.scheds[idx], resp.Schedule) {
			o.sched = idx
			return
		}
	}
	o.sched = int32(len(w.scheds))
	w.scheds = append(w.scheds, resp.Schedule)
	w.held.Add(int64(cap(resp.Schedule)))
	w.schedKey[k] = append(w.schedKey[k], o.sched)
}

// traceMeta records the program's own timings as child spans: the
// solve under the path span, construction and dedup beside it, and the
// solve phases under the solve.
func (w *worker) traceMeta(o *outcome, req, parent int64) {
	for _, p := range []obs.Phase{obs.PhaseConstruct, obs.PhaseDedup} {
		if o.phase[p] > 0 {
			w.rec.child("phase."+p.String(), req, parent, o.phase[p])
		}
	}
	if o.solveNs == 0 {
		return
	}
	s := w.rec.child("solve", req, parent, o.solveNs)
	for _, p := range []obs.Phase{obs.PhaseMerge, obs.PhasePack, obs.PhaseExtract} {
		if o.phase[p] > 0 {
			w.rec.child("phase."+p.String(), req, s, o.phase[p])
		}
	}
}

// runClients drives the workers concurrently until the deadline or
// their streams run out, and returns the wall time of the phase.
func runClients(ws []*worker, seconds int) time.Duration {
	start := time.Now()
	stop := start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(stop)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// countingTransport counts the response body bytes the benchmark's
// HTTP clients read.
type countingTransport struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// fleet is serve-warm's system under test: two service shards and a
// router, each on its own loopback listener in this process.
type fleet struct {
	shards  []*service.Service
	addrs   []string
	servers []*http.Server
	wg      sync.WaitGroup
	router  *cluster.Router
	base    string // router URL
	benchTr *http.Transport
	fwdTr   *http.Transport
	counter *countingTransport
	hc      *http.Client
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ln.Addr().String(), nil
}

func startFleet() (*fleet, error) {
	f := &fleet{
		benchTr: &http.Transport{MaxIdleConnsPerHost: 8},
		fwdTr:   &http.Transport{MaxIdleConnsPerHost: 8},
	}
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{})
		addr, err := f.serve(svc.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, svc)
		f.addrs = append(f.addrs, addr)
	}
	rt, err := cluster.NewRouter(f.addrs, 0, &http.Client{Transport: f.fwdTr})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	addr, err := f.serve(rt.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + addr
	f.counter = &countingTransport{rt: f.benchTr}
	f.hc = &http.Client{Transport: f.counter}
	return f, nil
}

// routes resolves each platform's owner shard for the three paths.
func (f *fleet) routes(ps []plat) *targets {
	rt := &targets{routed: client.New(f.base, f.hc), fleet: true}
	direct := map[string]*client.Client{}
	for _, a := range f.addrs {
		direct[a] = client.New("http://"+a, f.hc)
	}
	for _, p := range ps {
		owner := f.router.Ring().Owner(p.hash)
		rt.direct = append(rt.direct, direct[owner])
		for i, a := range f.addrs {
			if a == owner {
				rt.svc = append(rt.svc, f.shards[i])
			}
		}
	}
	return rt
}

func (f *fleet) stats() service.Stats {
	var sum service.Stats
	for _, s := range f.shards {
		addStats(&sum, s.Stats())
	}
	return sum
}

// close stops every server and waits for their goroutines.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range f.servers {
		_ = s.Shutdown(ctx) // a timeout here still leaves Close below
		_ = s.Close()
	}
	f.wg.Wait()
	f.benchTr.CloseIdleConnections()
	f.fwdTr.CloseIdleConnections()
}

func addStats(sum *service.Stats, s service.Stats) {
	sum.Hits += s.Hits
	sum.Misses += s.Misses
	sum.Coalesced += s.Coalesced
	sum.MemoHits += s.MemoHits
	sum.Constructions += s.Constructions
	sum.Evictions += s.Evictions
	sum.Sheds += s.Sheds
	sum.Degraded += s.Degraded
	sum.Rehydrates += s.Rehydrates
	sum.RehydratedLegs += s.RehydratedLegs
}

func subStats(a, b service.Stats) service.Stats {
	return service.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Coalesced: a.Coalesced - b.Coalesced,
		MemoHits: a.MemoHits - b.MemoHits, Constructions: a.Constructions - b.Constructions,
		Evictions: a.Evictions - b.Evictions, Sheds: a.Sheds - b.Sheds, Degraded: a.Degraded - b.Degraded,
		Rehydrates: a.Rehydrates - b.Rehydrates, RehydratedLegs: a.RehydratedLegs - b.RehydratedLegs,
	}
}
