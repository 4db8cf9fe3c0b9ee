package obs

import (
	"bytes"
	"math"
	"reflect"
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

// TestLabelValueWithBrace: a `}` inside a quoted label value does not
// end the label set, and a label set without its closing brace is
// still rejected.
func TestLabelValueWithBrace(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "shard", "a}b").Add(2)
	r.Histogram("lat_ns", "", "op", "{}}").Observe(5)
	e := scrape(t, r)
	if v, err := e.Value("x_total", map[string]string{"shard": "a}b"}); err != nil || v != 2 {
		t.Errorf(`x_total{shard="a}b"} = %v (err %v), want 2`, v, err)
	}
	if v, err := e.Value("lat_ns_count", map[string]string{"op": "{}}"}); err != nil || v != 1 {
		t.Errorf(`lat_ns_count{op="{}}"} = %v (err %v), want 1`, v, err)
	}
	if _, err := ParseExposition(strings.NewReader("# TYPE x_total counter\nx_total{shard=\"a}b\" 1\n")); err == nil {
		t.Error("a label set without its closing brace parsed")
	}
}

// TestHelpRoundTrip: HELP text comes back from a scrape unescaped, and
// Add keeps a family's first HELP.
func TestHelpRoundTrip(t *testing.T) {
	e := scrape(t, goldenRegistry())
	if got, want := e.Help["repro_service_hits_total"], "warm hits \\ cold hits\nsecond line"; got != want {
		t.Errorf("HELP = %q, want %q", got, want)
	}
	merged := &Exposition{}
	merged.Add(mustParse(t, "# HELP x_total first\n# TYPE x_total counter\nx_total 1\n"))
	merged.Add(mustParse(t, "# HELP x_total second\n# TYPE x_total counter\nx_total 2\n"))
	if got, want := written(t, merged), "# HELP x_total first\n# TYPE x_total counter\nx_total 3\n"; got != want {
		t.Errorf("merged:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionMatchesItsText: a registry's Exposition is exactly what
// parsing its written text gives back, so the router's snapshot of its
// own registry and a shard's scrape hold the same samples.
func TestExpositionMatchesItsText(t *testing.T) {
	r := goldenRegistry()
	if got, want := r.Exposition(), scrape(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("Exposition() = %+v\nparsed text = %+v", got, want)
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
	seed.Reset()
	if err := goldenRegistry().WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# HELP x_total a \\\\ b\\nc \\q\n# TYPE x_total counter\nx_total{shard=\"a}b\",path=\"{\\\"}\\n\"} 1\n")
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
