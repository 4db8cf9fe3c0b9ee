package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
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
//	GET  /metrics — the fleet's expositions merged: samples with the
//	                same name and labels are summed, plus the router's
//	                own forward/failover counters.
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
	ring    *Ring
	baseURL map[string]string
	client  *http.Client

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
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	if client == nil {
		client = http.DefaultClient
	}
	r := &Router{
		ring:     NewRing(vnodes),
		baseURL:  make(map[string]string, len(shards)),
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
		if err := r.ring.Add(s); err != nil {
			return nil, err
		}
		base := s
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		r.baseURL[s] = strings.TrimSuffix(base, "/")
		r.forwards[s] = r.reg.Counter("repro_router_forwards_total",
			"solves forwarded, by answering shard", "shard", s)
		r.errors[s] = r.reg.Counter("repro_router_forward_errors_total",
			"transport-level forward failures, by shard", "shard", s)
	}
	return r, nil
}

// Ring exposes the router's ring (read-only use).
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/shards", rt.handleShards)
	return mux
}

// writeError mirrors the shards' JSON error envelope so router-origin
// and shard-origin failures read the same to clients.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", msg)
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a solve request")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, routerMaxBody))
	if err != nil {
		rt.rejected.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "reading request: "+err.Error())
		return
	}
	// Routing needs only the platform envelope; everything else in the
	// request is the shard's business and travels through untouched.
	env := service.RequestPlatform(body)
	if len(env) == 0 {
		rt.rejected.Inc()
		writeError(w, http.StatusBadRequest, "solve request carries no platform envelope")
		return
	}
	dec, err := platform.Decode(env)
	if err != nil {
		rt.rejected.Inc()
		writeError(w, http.StatusBadRequest, "decoding platform: "+err.Error())
		return
	}

	// The full ring order is the failover sequence; the owner leads.
	targets := rt.ring.Owners(dec.Hash(), rt.ring.Len())
	var lastErr error
	for i, shard := range targets {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			rt.baseURL[shard]+"/solve", bytes.NewReader(body))
		if err != nil {
			rt.rejected.Inc()
			writeError(w, http.StatusInternalServerError, err.Error())
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
	writeError(w, http.StatusBadGateway, fmt.Sprintf("no shard reachable: %v", lastErr))
}

func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
}

// shardGet fans one GET out to every shard concurrently and returns
// the responses (nil body bytes on transport failure) keyed by shard.
type shardReply struct {
	status int
	body   []byte
	err    error
}

func (rt *Router) shardGet(r *http.Request, path string) map[string]shardReply {
	members := rt.ring.Members()
	out := make(map[string]shardReply, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, shard := range members {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			var reply shardReply
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.baseURL[shard]+path, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = rt.client.Do(req); err == nil {
					reply.status = resp.StatusCode
					reply.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
			}
			reply.err = err
			mu.Lock()
			out[shard] = reply
			mu.Unlock()
		}(shard)
	}
	wg.Wait()
	return out
}

// handleMetrics merges the fleet's expositions: samples sharing a name
// and label set are summed — counters add, gauges add (entries,
// in-flight and queue depths are fleet totals), histogram buckets add
// bucket-wise because every shard emits identical bucket bounds. The
// router's own counters ride along under their distinct names.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET the metrics")
		return
	}
	merged := newMetricMerge()
	var own bytes.Buffer
	if err := rt.reg.WritePrometheus(&own); err == nil {
		_ = merged.add(&own) // own registry output is well-formed by construction
	}
	for shard, reply := range rt.shardGet(r, "/metrics") {
		if reply.err != nil || reply.status != http.StatusOK {
			continue // the shard is down; /healthz is the place that says so
		}
		if err := merged.add(bytes.NewReader(reply.body)); err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("shard %s exposition: %v", shard, err))
			return
		}
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	merged.render(w)
}

// metricMerge accumulates parsed expositions, summing samples by
// (name, labels) and preserving first-seen order so histogram series
// stay contiguous and correctly ordered.
type metricMerge struct {
	order   []string
	samples map[string]*obs.Sample
	types   map[string]string
	// famOrder remembers family first-appearance for stable TYPE blocks.
	famOrder []string
	famSeen  map[string]bool
}

func newMetricMerge() *metricMerge {
	return &metricMerge{
		samples: make(map[string]*obs.Sample),
		types:   make(map[string]string),
		famSeen: make(map[string]bool),
	}
}

// sampleKey is the identity samples are summed under.
func sampleKey(s obs.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&sb, "|%s=%s", k, s.Labels[k])
	}
	return sb.String()
}

// family maps a sample name to its TYPE-declared family, unwrapping
// histogram expansion suffixes.
func (m *metricMerge) family(name string) string {
	if _, ok := m.types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && m.types[base] == "histogram" {
			return base
		}
	}
	return name
}

func (m *metricMerge) add(r io.Reader) error {
	e, err := obs.ParseExposition(r)
	if err != nil {
		return err
	}
	for name, typ := range e.Types {
		if m.types[name] == "" {
			m.types[name] = typ
		}
	}
	for _, s := range e.Samples {
		key := sampleKey(s)
		if have, ok := m.samples[key]; ok {
			have.Value += s.Value
			continue
		}
		cp := s
		m.order = append(m.order, key)
		m.samples[key] = &cp
		if fam := m.family(s.Name); !m.famSeen[fam] {
			m.famSeen[fam] = true
			m.famOrder = append(m.famOrder, fam)
		}
	}
	return nil
}

func (m *metricMerge) render(w io.Writer) {
	// Group sample keys per family, preserving in-family order.
	byFam := make(map[string][]string, len(m.famOrder))
	for _, key := range m.order {
		fam := m.family(m.samples[key].Name)
		byFam[fam] = append(byFam[fam], key)
	}
	for _, fam := range m.famOrder {
		if typ := m.types[fam]; typ != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
		}
		for _, key := range byFam[fam] {
			s := m.samples[key]
			if len(s.Labels) == 0 {
				fmt.Fprintf(w, "%s %s\n", s.Name, formatValue(s.Value))
				continue
			}
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var sb strings.Builder
			for i, k := range keys {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%s=%q", k, s.Labels[k])
			}
			fmt.Fprintf(w, "%s{%s} %s\n", s.Name, sb.String(), formatValue(s.Value))
		}
	}
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
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
		writeError(w, http.StatusMethodNotAllowed, "GET the health")
		return
	}
	h := fleetHealth{Status: "ok", Shards: make(map[string]shardHealth)}
	status := http.StatusOK
	for shard, reply := range rt.shardGet(r, "/healthz") {
		sh := shardHealth{OK: reply.err == nil && reply.status == http.StatusOK, Status: reply.status}
		if reply.err != nil {
			sh.Error = reply.err.Error()
		}
		if !sh.OK {
			h.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		h.Shards[shard] = sh
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// ShardMapBody is the GET /shards payload: everything a client needs
// to construct the identical ring and route solves itself.
type ShardMapBody struct {
	Vnodes int      `json:"vnodes"`
	Shards []string `json:"shards"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET the shard map")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ShardMapBody{Vnodes: rt.ring.Vnodes(), Shards: rt.ring.Members()})
}
