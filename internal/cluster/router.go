package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/service"
)

// routerMaxBody bounds the /solve bodies the router will buffer; it
// matches the shards' own default limit, so the router never accepts
// what a shard would refuse.
const routerMaxBody = 16 << 20

// Router fronts a fleet of msserve shards with one HTTP surface:
//
//	POST /solve   — forwarded to the shard owning the platform's
//	                fingerprint on the consistent-hash ring; transport
//	                errors fail over to the next member clockwise. The
//	                answering shard is named in X-Ms-Shard.
//	GET  /metrics — the router's own counters with every shard's
//	                scrape summed in, written as a shard writes its
//	                own: one rendering per series, HELP included.
//	GET  /healthz — 200 iff every shard's readiness probe is 200, with
//	                per-shard detail either way.
//	GET  /shards  — the shard map (members + vnode count), so clients
//	                can build the identical ring and route locally.
//
// Application-level backpressure is deliberately NOT failed over: a 429
// from the owner travels back with its Retry-After intact, and the
// client's retry layer decides whether to redirect to a sibling — the
// router only reroutes when the owner cannot answer at all.
type Router struct {
	shards *ShardMap
	client *http.Client

	reg       *obs.Registry
	forwards  map[string]*obs.Counter
	errors    map[string]*obs.Counter
	failovers *obs.Counter
	rejected  *obs.Counter
}

// NewRouter builds a router over the given shard addresses (host:port
// or full http:// URLs; the address string is the ring member name
// verbatim). vnodes is the per-member virtual-node count — every
// router and client of one fleet must agree on it. client may be nil
// for http.DefaultClient.
func NewRouter(shards []string, vnodes int, client *http.Client) (*Router, error) {
	m, err := NewShardMap(shards, vnodes)
	if err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	r := &Router{
		shards:   m,
		client:   client,
		reg:      obs.NewRegistry(),
		forwards: make(map[string]*obs.Counter, len(shards)),
		errors:   make(map[string]*obs.Counter, len(shards)),
	}
	r.failovers = r.reg.Counter("repro_router_failovers_total",
		"solves rerouted to a ring successor after the owner failed at transport level")
	r.rejected = r.reg.Counter("repro_router_rejected_total",
		"solve requests the router could not route (malformed body, no shard reachable)")
	for _, s := range shards {
		r.forwards[s] = r.reg.Counter("repro_router_forwards_total",
			"solves forwarded, by answering shard", "shard", s)
		r.errors[s] = r.reg.Counter("repro_router_forward_errors_total",
			"transport-level forward failures, by shard", "shard", s)
	}
	return r, nil
}

// Ring exposes the router's ring (read-only use).
func (rt *Router) Ring() *Ring { return rt.shards.Ring() }

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/shards", rt.handleShards)
	return mux
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		service.WriteError(w, http.StatusMethodNotAllowed, "POST a solve request")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, routerMaxBody))
	if err != nil {
		rt.rejected.Inc()
		service.WriteError(w, http.StatusRequestEntityTooLarge, "reading request: "+err.Error())
		return
	}
	// Routing needs only the platform envelope; everything else in the
	// request is the shard's business and travels through untouched.
	env := service.RequestPlatform(body)
	if len(env) == 0 {
		rt.rejected.Inc()
		service.WriteError(w, http.StatusBadRequest, "solve request carries no platform envelope")
		return
	}
	// The full ring order is the failover sequence; the owner leads.
	targets, err := rt.shards.Targets(env)
	if err != nil {
		rt.rejected.Inc()
		service.WriteError(w, http.StatusBadRequest, "decoding platform: "+err.Error())
		return
	}
	var lastErr error
	for i, shard := range targets {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			rt.shards.URL(shard)+"/solve", bytes.NewReader(body))
		if err != nil {
			rt.rejected.Inc()
			service.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			// Transport failure: the shard is down or unreachable. Try
			// the next member clockwise — its answer is just as correct,
			// only colder.
			rt.errors[shard].Inc()
			lastErr = err
			continue
		}
		if i > 0 {
			rt.failovers.Inc()
		}
		rt.forwards[shard].Inc()
		copyHeader(w.Header(), resp.Header, "Content-Type")
		copyHeader(w.Header(), resp.Header, "Retry-After")
		w.Header().Set("X-Ms-Shard", shard)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	rt.rejected.Inc()
	service.WriteError(w, http.StatusBadGateway, fmt.Sprintf("no shard reachable: %v", lastErr))
}

func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
}

// shardReply is one shard's answer to a fanned-out GET; err is set on
// transport failure.
type shardReply struct {
	shard  string
	status int
	body   []byte
	err    error
}

// shardGet fans one GET out to every shard concurrently and returns the
// replies in member order.
func (rt *Router) shardGet(r *http.Request, path string) []shardReply {
	members := rt.shards.Ring().Members()
	out := make([]shardReply, len(members))
	var wg sync.WaitGroup
	for i, shard := range members {
		wg.Add(1)
		go func(reply *shardReply, shard string) {
			defer wg.Done()
			reply.shard = shard
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.shards.URL(shard)+path, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = rt.client.Do(req); err == nil {
					reply.status = resp.StatusCode
					reply.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
			}
			reply.err = err
		}(&out[i], shard)
	}
	wg.Wait()
	return out
}

// handleMetrics serves the fleet's expositions summed by
// obs.Exposition.Add: the snapshot of the router's own registry first,
// then each reachable shard's scrape in member order.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteError(w, http.StatusMethodNotAllowed, "GET the metrics")
		return
	}
	merged := rt.reg.Exposition()
	for _, reply := range rt.shardGet(r, "/metrics") {
		if reply.err != nil || reply.status != http.StatusOK {
			continue // the shard is down; /healthz is the place that says so
		}
		e, err := obs.ParseExposition(bytes.NewReader(reply.body))
		if err != nil {
			service.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("shard %s exposition: %v", reply.shard, err))
			return
		}
		merged.Add(e)
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_ = merged.Write(w) // headers are out; nothing to do on error
}

// fleetHealth is the router's /healthz body: overall status plus one
// entry per shard.
type fleetHealth struct {
	Status string                 `json:"status"`
	Shards map[string]shardHealth `json:"shards"`
}

type shardHealth struct {
	OK     bool   `json:"ok"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleHealthz is fleet readiness: 200 exactly when every shard's own
// readiness probe answers 200 — a draining or saturated shard turns
// the fleet yellow, because a slice of the keyspace is degraded.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteError(w, http.StatusMethodNotAllowed, "GET the health")
		return
	}
	h := fleetHealth{Status: "ok", Shards: make(map[string]shardHealth)}
	status := http.StatusOK
	for _, reply := range rt.shardGet(r, "/healthz") {
		sh := shardHealth{OK: reply.err == nil && reply.status == http.StatusOK, Status: reply.status}
		if reply.err != nil {
			sh.Error = reply.err.Error()
		}
		if !sh.OK {
			h.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		h.Shards[reply.shard] = sh
	}
	service.WriteJSON(w, status, h)
}

// ShardMapBody is the GET /shards payload: everything a client needs
// to construct the identical ring and route solves itself.
type ShardMapBody struct {
	Vnodes int      `json:"vnodes"`
	Shards []string `json:"shards"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteError(w, http.StatusMethodNotAllowed, "GET the shard map")
		return
	}
	ring := rt.shards.Ring()
	service.WriteJSON(w, http.StatusOK, ShardMapBody{Vnodes: ring.Vnodes(), Shards: ring.Members()})
}
