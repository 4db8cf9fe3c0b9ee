package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceNilSafety: every hook must be callable on a nil trace — that
// IS the disabled state the solve path relies on.
func TestTraceNilSafety(t *testing.T) {
	var tr *SolveTrace
	tr.Observe(PhasePack, time.Millisecond)
	tr.ObserveSince(PhaseMerge, time.Now())
	s := tr.Snapshot()
	if s != (PhaseSnapshot{}) || s.Map() != nil {
		t.Fatalf("nil trace snapshot not empty: %+v", s)
	}
}

func TestTraceAccumulatesAndSubtracts(t *testing.T) {
	tr := &SolveTrace{}
	tr.Observe(PhaseConstruct, 100*time.Nanosecond)
	before := tr.Snapshot()
	tr.Observe(PhaseConstruct, 50*time.Nanosecond)
	tr.Observe(PhasePack, 7*time.Nanosecond)
	d := tr.Snapshot().Sub(before)
	if d.Ns[PhaseConstruct] != 50 || d.Ns[PhasePack] != 7 {
		t.Fatalf("delta = %+v", d.Ns)
	}
	if d.Spans[PhaseConstruct] != 1 || d.Spans[PhasePack] != 1 {
		t.Fatalf("span delta = %+v", d.Spans)
	}
	m := d.Map()
	if m["construct"] != 50 || m["pack"] != 7 || len(m) != 2 {
		t.Fatalf("map = %v", m)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Phases() {
		name := p.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("phase %d renders %q", p, name)
		}
		seen[name] = true
	}
}

// TestRegistryHammer is the satellite's -race hammer: N goroutines do
// mixed counter increments and histogram observations through the
// registry concurrently; afterwards every count must sum exactly — no
// lost updates, no double counts.
func TestRegistryHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	r := NewRegistry()
	// Half the goroutines fetch the metrics through the registry each
	// iteration (lock path), half keep the pointers (atomic path).
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kind := []string{"spider", "chain"}[g%2]
			c := r.Counter("hammer_ops_total", "ops", "kind", kind)
			h := r.Histogram("hammer_latency_ns", "latency", "kind", kind)
			tr := r.Counter("hammer_shared_total", "shared")
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					c = r.Counter("hammer_ops_total", "ops", "kind", kind)
					h = r.Histogram("hammer_latency_ns", "latency", "kind", kind)
				}
				c.Inc()
				h.Observe(int64(i%2_000_000 + 1))
				tr.Add(2)
				r.Gauge("hammer_inflight", "inflight").Add(1)
				r.Gauge("hammer_inflight", "inflight").Add(-1)
			}
		}(g)
	}
	wg.Wait()

	want := int64(goroutines / 2 * perG)
	for _, kind := range []string{"spider", "chain"} {
		if got := r.Counter("hammer_ops_total", "", "kind", kind).Value(); got != want {
			t.Errorf("counter kind=%s: %d, want %d", kind, got, want)
		}
		s := r.Histogram("hammer_latency_ns", "", "kind", kind).Snapshot()
		if s.Count != uint64(want) {
			t.Errorf("histogram kind=%s count: %d, want %d", kind, s.Count, want)
		}
		if got := s.Cumulative[len(s.Cumulative)-1]; got != uint64(want) {
			t.Errorf("histogram kind=%s bucket sum: %d, want %d", kind, got, want)
		}
	}
	if got := r.Counter("hammer_shared_total", "").Value(); got != 2*int64(goroutines)*perG {
		t.Errorf("shared counter: %d, want %d", got, 2*int64(goroutines)*perG)
	}
	if got := r.Gauge("hammer_inflight", "").Value(); got != 0 {
		t.Errorf("inflight gauge: %d, want 0", got)
	}

	// The hammered registry must still render validly.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("hammered exposition invalid: %v\n%s", err, sb.String())
	}
}

// TestTraceHammer: concurrent observers into one trace (the spider
// solver's parallel growth workers do exactly this) must not lose
// updates.
func TestTraceHammer(t *testing.T) {
	tr := &SolveTrace{}
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Observe(PhaseConstruct, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Ns[PhaseConstruct] != goroutines*perG || s.Spans[PhaseConstruct] != goroutines*perG {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	if s := h.Snapshot(); s.P50 != -1 || s.P99 != -1 {
		t.Fatalf("empty histogram quantiles: %+v", s)
	}
	// 90 observations ≤10, 9 in (10,100], 1 in (100,1000].
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(500)
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90*5+9*50+500 {
		t.Fatalf("count/sum: %+v", s)
	}
	if s.P50 != 10 {
		t.Errorf("p50 = %d, want 10", s.P50)
	}
	if s.P95 != 100 {
		t.Errorf("p95 = %d, want 100", s.P95)
	}
	// 99 of the 100 observations are ≤ 100, so the p99 upper-bound
	// estimate is the 100 bucket, not the one holding the single tail
	// value.
	if s.P99 != 100 {
		t.Errorf("p99 = %d, want 100", s.P99)
	}
	// Two more tail observations push the 99th rank into the last bucket.
	h.Observe(500)
	h.Observe(500)
	if s := h.Snapshot(); s.P99 != 1000 {
		t.Errorf("tail-heavy p99 = %d, want 1000", s.P99)
	}
	// Overflow observations saturate at the largest finite bound.
	for i := 0; i < 1000; i++ {
		h.Observe(5000)
	}
	if s := h.Snapshot(); s.P99 != 1000 {
		t.Errorf("overflow p99 = %d, want saturation at 1000", s.P99)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	NewHistogram([]int64{10, 5})
}

// TestExpositionFormat locks the rendered format: label escaping,
// family sorting, histogram expansion, gauge funcs.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", "kind", `sp"ider`).Add(3)
	r.Counter("b_total", "", "kind", "chain").Inc()
	r.Gauge("a_gauge", "the a").Set(-7)
	r.GaugeFunc("a_func", "computed", func() int64 { return 42 })
	h := r.Histogram("lat_ns", "latency", "op", "solve")
	h.Observe(3)
	h.Observe(2_000_000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	e, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	if v, err := e.Value("b_total", map[string]string{"kind": `sp"ider`}); err != nil || v != 3 {
		t.Errorf("escaped-label counter: %v %v", v, err)
	}
	if v, err := e.Value("a_func", nil); err != nil || v != 42 {
		t.Errorf("gauge func: %v %v", v, err)
	}
	if v, err := e.Value("lat_ns_count", map[string]string{"op": "solve"}); err != nil || v != 2 {
		t.Errorf("histogram count: %v %v", v, err)
	}
	if v, err := e.Value("lat_ns_bucket", map[string]string{"op": "solve", "le": "+Inf"}); err != nil || v != 2 {
		t.Errorf("+Inf bucket: %v %v", v, err)
	}
	if e.Types["lat_ns"] != "histogram" || e.Types["b_total"] != "counter" || e.Types["a_gauge"] != "gauge" {
		t.Errorf("types: %v", e.Types)
	}
	// Families must come out sorted.
	aIdx, bIdx := strings.Index(out, "# TYPE a_gauge"), strings.Index(out, "# TYPE b_total")
	if aIdx < 0 || bIdx < 0 || aIdx > bIdx {
		t.Errorf("families unsorted:\n%s", out)
	}
}

func TestRegistryTypeClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("y_total", "", "k", "v")
	b := r.Counter("y_total", "", "k", "v")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("y_total", "", "k", "w")
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
}
