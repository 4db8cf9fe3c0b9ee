package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the nearest-rank quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// e2eMetrics are the end-to-end metrics of an untraced run.
func e2eMetrics(r *run, exact int) map[string]metric {
	var lat []float64
	failed := 0
	for _, w := range r.workers {
		for _, o := range w.out {
			lat = append(lat, float64(o.lat)/1e3)
			if o.failed {
				failed++
			}
		}
	}
	n := float64(max(len(lat), 1)) // a run with no requests fails anyway
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]metric{
		"ops_per_s":          {float64(exact) / r.elapsed.Seconds(), "1/s"},
		"latency_p50_us":     {quantile(lat, 0.5), "us"},
		"latency_p90_us":     {quantile(lat, 0.9), "us"},
		"success_rate":       {(n - float64(failed)) / n, "ratio"},
		"exact_rate":         {float64(exact) / n, "ratio"},
		"alloc_bytes_per_op": {float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / n, "B"},
		"heap_live_mb":       {r.heapLiveBytes / (1 << 20), "MB"},
		"setup_s":            {median(setups), "s"},
	}
}

// layerMetrics are the per-layer metrics of a traced run. Layers a
// workload bypasses read 0.
func layerMetrics(r *run) map[string]metric {
	mainPath := r.workers[0].mainP
	type group struct{ path, class uint8 }
	byPathClass := map[group][]float64{}
	byFamily := map[string][]float64{}
	byClass := map[uint8][]float64{}
	var traced, untraced, decode, svcOver, solve []float64
	var probes, packs, rewinds float64
	var phase [obs.NumPhases]float64
	httpOps := 0
	for _, w := range r.workers {
		for _, o := range w.out {
			if o.path != pathInproc {
				httpOps++
			}
			if o.failed {
				continue
			}
			q := w.stream[o.q]
			lat := float64(o.lat) / 1e3
			if !o.traced {
				untraced = append(untraced, lat)
				continue
			}
			decode = append(decode, float64(o.decodeNs)/1e3)
			byPathClass[group{o.path, q.class}] = append(byPathClass[group{o.path, q.class}], float64(o.lat)/1e3)
			if o.path == pathInproc {
				over := o.lat - o.solveNs - o.phase[obs.PhaseConstruct] - o.phase[obs.PhaseDedup]
				svcOver = append(svcOver, float64(over)/1e3)
			}
			if o.solveNs > 0 {
				solve = append(solve, float64(o.solveNs)/1e3)
			}
			probes += float64(o.probes)
			packs += float64(o.packs)
			rewinds += float64(o.rewinds)
			for p := range phase {
				phase[p] += float64(o.phase[p])
			}
			if o.path == mainPath {
				traced = append(traced, lat)
				fam := r.in.plats[q.plat].fam
				byFamily[fam] = append(byFamily[fam], lat)
				byClass[q.class] = append(byClass[q.class], lat)
			}
		}
	}
	ops := float64(max(r.attempted(), 1))
	tops := float64(len(decode))
	perOp := func(sum float64) float64 {
		if tops == 0 {
			return 0
		}
		return sum / tops
	}
	m := map[string]metric{}
	memoP50 := func(path uint8) float64 { return median(byPathClass[group{path, classMemo}]) }
	if r.workers[0].route.fleet {
		m["cluster.hop_us_p50"] = metric{memoP50(pathRouted) - memoP50(pathDirect), "us"}
		m["http.overhead_us_p50"] = metric{memoP50(pathDirect) - memoP50(pathInproc), "us"}
	} else {
		m["cluster.hop_us_p50"] = metric{0, "us"}
		m["http.overhead_us_p50"] = metric{0, "us"}
	}
	bytesPerOp := 0.0
	if httpOps > 0 {
		bytesPerOp = float64(r.httpBytes) / float64(httpOps)
	}
	m["http.resp_bytes_per_op"] = metric{bytesPerOp, "B"}
	m["platform.decode_us_p50"] = metric{median(decode), "us"}
	m["service.overhead_us_p50"] = metric{median(svcOver), "us"}
	m["service.memo_hit_ratio"] = metric{float64(r.timed.MemoHits) / ops, "ratio"}
	cacheHit := 0.0
	if lookups := r.timed.Hits + r.timed.Misses; lookups > 0 {
		cacheHit = float64(r.timed.Hits) / float64(lookups)
	}
	m["service.cache_hit_ratio"] = metric{cacheHit, "ratio"}
	m["service.constructions"] = metric{float64(r.life.Constructions), "count"}
	m["service.rehydrates"] = metric{float64(r.life.Rehydrates), "count"}
	m["service.evictions"] = metric{float64(r.life.Evictions), "count"}
	m["service.sheds"] = metric{float64(r.life.Sheds), "count"}
	m["service.degraded"] = metric{float64(r.life.Degraded), "count"}
	m["solver.solve_us_p50"] = metric{median(solve), "us"}
	m["solver.probes_per_op"] = metric{perOp(probes), "count"}
	m["solver.pack_probes_per_op"] = metric{perOp(packs), "count"}
	m["solver.rewind_hits_per_op"] = metric{perOp(rewinds), "count"}
	for _, p := range obs.Phases() {
		m["solver.phase."+p.String()+"_us_per_op"] = metric{perOp(phase[p]) / 1e3, "us"}
	}
	for _, f := range families {
		m["family."+f+".latency_p50_us"] = metric{median(byFamily[f]), "us"}
	}
	for c, name := range classNames {
		m["class."+name+".latency_p50_us"] = metric{median(byClass[uint8(c)]), "us"}
	}
	rehydrateMs := 0.0
	if r.workload == wWarmProbe {
		var ms []float64
		for _, d := range r.setups {
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		rehydrateMs = median(ms)
	}
	m["plancache.rehydrate_ms"] = metric{rehydrateMs, "ms"}
	m["plancache.rehydrated_legs"] = metric{float64(r.life.RehydratedLegs), "count"}
	m["plancache.snapshot_ms"] = metric{r.snapshotMs, "ms"}
	m["runtime.gc_cycles_per_kop"] = metric{float64(r.mem1.NumGC-r.mem0.NumGC) / ops * 1e3, "count"}
	m["runtime.gc_pause_ms"] = metric{float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6, "ms"}
	overhead := 0.0
	if base := median(untraced); base > 0 {
		overhead = 100 * (median(traced) - base) / base
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	return m
}

// mixTable prints count, share and latency quantiles per (family,
// class) cell of the main path, so a reader can see where p50 and p90
// fall.
func mixTable(r *run) string {
	type cell struct {
		fam   string
		class uint8
		op    uint8
	}
	lat := map[cell][]float64{}
	total := 0
	for _, w := range r.workers {
		for _, o := range w.out {
			if o.path != w.mainP || o.failed {
				continue
			}
			q := w.stream[o.q]
			c := cell{r.in.plats[q.plat].fam, q.class, q.op}
			lat[c] = append(lat[c], float64(o.lat)/1e3)
			total++
		}
	}
	var b strings.Builder
	for _, f := range families {
		for ci, cn := range classNames {
			for op, on := range opNames {
				xs := lat[cell{f, uint8(ci), uint8(op)}]
				if len(xs) == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %-10s %-8s %-15s n=%-6d share=%5.1f%% p10=%9.1f p50=%9.1f p90=%9.1f us\n",
					f, cn, on, len(xs), 100*float64(len(xs))/float64(total), quantile(xs, 0.1), median(xs), quantile(xs, 0.9))
			}
		}
	}
	return b.String()
}

// layerSplit sums serve-warm's layer split (router hop, HTTP, service
// and solve medians) for comparison with the traced run's
// client-observed p50 on the routed path.
func layerSplit(r *run, m map[string]metric) (sum, routedP50 float64) {
	for _, k := range []string{"cluster.hop_us_p50", "http.overhead_us_p50", "service.overhead_us_p50", "solver.solve_us_p50"} {
		sum += m[k].Value
	}
	var lat []float64
	for _, w := range r.workers {
		for _, o := range w.out {
			if o.path == pathRouted && !o.failed {
				lat = append(lat, float64(o.lat)/1e3)
			}
		}
	}
	return sum, median(lat)
}
