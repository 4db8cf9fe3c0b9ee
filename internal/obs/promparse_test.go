package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// oddLabel holds every byte the text format treats specially inside a
// label value: a raw tab, and the three escaped ones.
const oddLabel = "tab\there \\ \"q\" \nline"

func mustParse(t testing.TB, text string) *Exposition {
	t.Helper()
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return e
}

func scrape(t testing.TB, r *Registry) *Exposition {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return mustParse(t, b.String())
}

func written(t testing.TB, e *Exposition) string {
	t.Helper()
	var b bytes.Buffer
	if err := e.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExpositionAddSumsByLabelSet: samples sum only when name and the
// whole label set agree. Label sets whose `|k=v` joins coincide stay
// apart, and odd label values survive Add → Write → ParseExposition,
// histogram instances included.
func TestExpositionAddSumsByLabelSet(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x_total", "", "a", "p|b=q").Add(1)
	b.Counter("x_total", "", "a", "p", "b", "q").Add(2)
	a.Counter("x_total", "", "a", oddLabel).Add(3)
	b.Counter("x_total", "", "a", oddLabel).Add(4)
	a.Histogram("lat_ns", "", "path", oddLabel).Observe(5)
	b.Histogram("lat_ns", "", "path", oddLabel).Observe(2_000_000)
	b.Gauge("depth", "").Set(6)

	merged := &Exposition{}
	merged.Add(scrape(t, a))
	merged.Add(scrape(t, b))
	back := mustParse(t, written(t, merged))
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"x_total", map[string]string{"a": "p|b=q"}, 1},
		{"x_total", map[string]string{"a": "p", "b": "q"}, 2},
		{"x_total", map[string]string{"a": oddLabel}, 7},
		{"lat_ns_count", map[string]string{"path": oddLabel}, 2},
		{"lat_ns_bucket", map[string]string{"path": oddLabel, "le": "+Inf"}, 2},
		{"depth", nil, 6},
	} {
		if v, err := back.Value(c.name, c.labels); err != nil || v != c.want {
			t.Errorf("%s%v = %v (err %v), want %v", c.name, c.labels, v, err, c.want)
		}
	}
	if len(back.Samples) != len(merged.Samples) {
		t.Errorf("write → parse kept %d of %d samples", len(back.Samples), len(merged.Samples))
	}
}

// TestHistogramInstancesKeyedByLabelSet: the histogram check tells
// instances apart by their whole label set, so two valid instances whose
// `|k=v` joins coincide are accepted, and a _count that disagrees with
// its own instance's +Inf bucket is still caught.
func TestHistogramInstancesKeyedByLabelSet(t *testing.T) {
	valid := `# TYPE h histogram
h_bucket{a="p|b=q",le="1"} 1
h_bucket{a="p|b=q",le="+Inf"} 1
h_count{a="p|b=q"} 1
h_bucket{a="p",b="q",le="1"} 0
h_bucket{a="p",b="q",le="+Inf"} 2
h_count{a="p",b="q"} 2
`
	mustParse(t, valid)
	bad := strings.Replace(valid, `h_count{a="p",b="q"} 2`, `h_count{a="p",b="q"} 1`, 1)
	if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
		t.Error("a _count disagreeing with its +Inf bucket parsed")
	}
}

// TestParseNonFiniteValues: sample values may be +Inf, -Inf or NaN.
func TestParseNonFiniteValues(t *testing.T) {
	e := mustParse(t, "# TYPE g gauge\ng{v=\"a\"} +Inf\ng{v=\"b\"} -Inf\ng{v=\"c\"} NaN\n")
	for label, ok := range map[string]func(float64) bool{
		"a": func(v float64) bool { return math.IsInf(v, 1) },
		"b": func(v float64) bool { return math.IsInf(v, -1) },
		"c": math.IsNaN,
	} {
		if v, err := e.Value("g", map[string]string{"v": label}); err != nil || !ok(v) {
			t.Errorf("g{v=%q} = %v (err %v)", label, v, err)
		}
	}
}

// FuzzParseExposition: parsing never panics, and every exposition that
// parses is a fixed point of Write after one round:
// write(parse(write(e))) == write(e).
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("b_total", "bees", "kind", `sp"ider`).Add(3)
	r.Counter("b_total", "", "kind", oddLabel).Inc()
	r.Gauge("a_gauge", "the a").Set(-7)
	r.Histogram("lat_ns", "latency", "op", "solve").Observe(3)
	var seed bytes.Buffer
	if err := r.WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# TYPE g gauge\ng 0.25\ng{a=\"x\"} 1e300\ng{a=\"y\"} NaN\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n")
	f.Fuzz(func(t *testing.T, text string) {
		e, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		once := written(t, e)
		back, err := ParseExposition(strings.NewReader(once))
		if err != nil {
			t.Fatalf("written exposition does not parse: %v\n%s", err, once)
		}
		if twice := written(t, back); twice != once {
			t.Fatalf("write(parse(write(e))) differs:\n%s\nvs\n%s", twice, once)
		}
	})
}
