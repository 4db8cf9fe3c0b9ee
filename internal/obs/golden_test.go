package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the registry's golden exposition")

// goldenRegistry is a fixed shard-like registry: HELP text holding a
// backslash and a newline, a counter with a label value holding every
// escape, a Gauge and a GaugeFunc in one family (one series registered
// as both, where the GaugeFunc wins), and a histogram labelled the way
// the service labels its solve latencies.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("repro_service_hits_total", "warm hits \\ cold hits\nsecond line").Add(3)
	r.Counter("repro_service_degraded_total", "degraded answers, by reason", "reason", "shed").Add(2)
	r.Counter("repro_service_degraded_total", "", "reason", "a \"quoted\" \\ path\nline").Inc()
	r.Gauge("repro_service_entries", "cache entries, by tier", "tier", "hot").Set(4)
	r.GaugeFunc("repro_service_entries", "", func() int64 { return -2 }, "tier", "cold")
	r.Gauge("repro_service_entries", "", "tier", "warm").Set(1)
	r.GaugeFunc("repro_service_entries", "", func() int64 { return 9 }, "tier", "warm")
	for _, o := range []struct {
		cache, kind, op string
		ns              int64
	}{
		{"miss", "tree", "min_makespan", 120_000},
		{"hit", "tree", "min_makespan", 800},
		{"hit", "tree", "min_makespan", 3_000},
		{"miss", "spider", "max_tasks", 20_000_000_000},
	} {
		r.Histogram("repro_solve_duration_ns", "solve latency, ns", "cache", o.cache, "kind", o.kind, "op", o.op).Observe(o.ns)
	}
	return r
}

// TestRegistryExpositionGolden pins the bytes a shard's /metrics
// serves for goldenRegistry.
func TestRegistryExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "registry_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("bytes differ from %s:\n%s", path, b.Bytes())
	}
}
