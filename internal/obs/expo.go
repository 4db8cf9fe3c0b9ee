package obs

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format this package writes.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition snapshots every registered metric: families sorted by
// name with their HELP text and TYPE, instances sorted by label set.
// Histograms expand into the conventional _bucket/_sum/_count samples,
// the buckets cumulative, ending at +Inf, with le among their labels.
// Samples share the registry's label maps; treat them as read-only.
func (r *Registry) Exposition() *Exposition {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := &Exposition{Types: make(map[string]string, len(r.families)), Help: make(map[string]string)}
	for name, f := range r.families {
		e.Types[name] = f.typ
		if f.help != "" {
			e.Help[name] = f.help
		}
	}
	keys := make([]metricKey, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b metricKey) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return strings.Compare(a.labels, b.labels)
	})
	for _, k := range keys {
		s := r.series[k]
		sample := func(suffix string, labels map[string]string, v float64) {
			e.Samples = append(e.Samples, Sample{Name: k.name + suffix, Labels: labels, Value: v})
		}
		switch v := s.value.(type) {
		case interface{ Value() int64 }: // *Counter, *Gauge
			sample("", s.labels, float64(v.Value()))
		case func() int64:
			sample("", s.labels, float64(v()))
		case *Histogram:
			snap := v.Snapshot()
			for i, c := range snap.Cumulative {
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = strconv.FormatInt(snap.Bounds[i], 10)
				}
				labels := maps.Clone(s.labels)
				labels["le"] = le
				sample("_bucket", labels, float64(c))
			}
			sample("_sum", s.labels, float64(snap.Sum))
			sample("_count", s.labels, float64(snap.Cumulative[len(snap.Cumulative)-1]))
		}
	}
	return e
}

// WritePrometheus writes the registry's Exposition in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error { return r.Exposition().Write(w) }
