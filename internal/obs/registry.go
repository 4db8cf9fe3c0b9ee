package obs

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and panic, since
// a counter that goes down breaks every rate() a dashboard computes.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: negative counter delta %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricName validates Prometheus metric names; label names follow the
// same grammar minus the colon.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// metricKey identifies one metric instance: the family name plus its
// canonical (sorted, rendered) label set.
type metricKey struct {
	name   string
	labels string
}

// series is one registered metric instance: its label set and its
// value holder, a *Counter, *Gauge, func() int64 or *Histogram.
type series struct {
	labels map[string]string
	value  any
}

// family is one exported metric family: every instance shares the name,
// help text and value type.
type family struct {
	help string
	typ  string // "counter" | "gauge" | "histogram"
}

// Registry holds metric instances by (name, labels) and renders them in
// the Prometheus text exposition format. Lookup methods are idempotent —
// the same (name, labels) always returns the same instance — and safe
// for concurrent use, but they take a lock: hot paths fetch their
// metrics once and keep the pointers. Mixing value types under one name
// panics (a metric family has exactly one type).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[metricKey]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), series: make(map[metricKey]*series)}
}

// lookup returns the instance for (name, labels), creating it with no
// value on first use. It canonicalises the label pairs and registers
// the family, enforcing name/label validity and per-family type
// consistency.
func (r *Registry) lookup(name, help, typ string, labelPairs []string) *series {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs for %s: %v", name, labelPairs))
	}
	labels := make(map[string]string, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		if !labelName.MatchString(labelPairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", labelPairs[i], name))
		}
		labels[labelPairs[i]] = labelPairs[i+1]
	}
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
		}
		if help != "" && f.help == "" {
			f.help = help
		}
	} else {
		r.families[name] = &family{help: help, typ: typ}
	}
	k := metricKey{name: name, labels: labelString(labels, "")}
	s, ok := r.series[k]
	if !ok {
		s = &series{labels: labels}
		r.series[k] = s
	}
	return s
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double quote and newline are the only escapes it defines.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labelString renders a label set without its braces: names sorted,
// values escaped by escapeLabel, the label drop left out. The registry
// keys its instances by it and an Exposition identifies a sample by it;
// the escaping makes it injective, so distinct label sets never share a
// rendering.
func labelString(labels map[string]string, drop string) string {
	names := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	var sb strings.Builder
	for i, k := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[k]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// Counter returns the counter instance for (name, labels), creating it
// on first use. labelPairs alternate name, value.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "counter", labelPairs)
	if s.value == nil {
		s.value = &Counter{}
	}
	return s.value.(*Counter)
}

// Gauge returns the gauge instance for (name, labels), creating it on
// first use. On a series a GaugeFunc computes, the gauge returned is
// not exported: the function wins.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "gauge", labelPairs)
	if g, ok := s.value.(*Gauge); ok {
		return g
	}
	g := &Gauge{}
	if s.value == nil {
		s.value = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// uptime, cache entry counts and other values that already live
// elsewhere. Re-registering the same (name, labels) replaces the
// function, and a function replaces a Gauge on the same series. fn
// must be safe to call concurrently with anything.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labelPairs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, "gauge", labelPairs).value = fn
}

// Histogram returns the histogram instance for (name, labels), creating
// it with DefaultLatencyBuckets on first use.
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, "histogram", labelPairs)
	if s.value == nil {
		s.value = NewHistogram(nil)
	}
	return s.value.(*Histogram)
}
