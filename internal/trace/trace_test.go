package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/platform"
)

func sample() []Interval {
	return []Interval{
		{Resource: "link 1", Task: 2, Kind: Comm, Start: 2, End: 4},
		{Resource: "link 1", Task: 1, Kind: Comm, Start: 0, End: 2},
		{Resource: "proc 1", Task: 1, Kind: Exec, Start: 2, End: 7},
		{Resource: "proc 1", Task: 2, Kind: Wait, Start: 4, End: 7},
		{Resource: "proc 1", Task: 2, Kind: Exec, Start: 7, End: 12},
	}
}

func TestSortOrder(t *testing.T) {
	ivs := sample()
	Sort(ivs)
	if ivs[0].Resource != "link 1" || ivs[0].Task != 1 {
		t.Errorf("first interval after sort = %v", ivs[0])
	}
	for i := 1; i < len(ivs); i++ {
		a, b := ivs[i-1], ivs[i]
		if a.Resource > b.Resource || (a.Resource == b.Resource && a.Start > b.Start) {
			t.Fatalf("not sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestResourcesFirstAppearance(t *testing.T) {
	got := Resources(sample())
	if len(got) != 2 || got[0] != "link 1" || got[1] != "proc 1" {
		t.Errorf("Resources = %v", got)
	}
}

func TestCheckOverlaps(t *testing.T) {
	if err := CheckOverlaps(sample()); err != nil {
		t.Errorf("disjoint intervals rejected: %v", err)
	}
	bad := sample()
	bad = append(bad, Interval{Resource: "proc 1", Task: 3, Kind: Exec, Start: 6, End: 8})
	if err := CheckOverlaps(bad); err == nil {
		t.Error("overlap not detected")
	}
	// Wait intervals may overlap anything.
	waits := []Interval{
		{Resource: "proc 1", Task: 1, Kind: Wait, Start: 0, End: 10},
		{Resource: "proc 1", Task: 2, Kind: Wait, Start: 3, End: 8},
		{Resource: "proc 1", Task: 3, Kind: Exec, Start: 4, End: 6},
	}
	if err := CheckOverlaps(waits); err != nil {
		t.Errorf("wait overlap rejected: %v", err)
	}
	// Touching intervals are fine (half-open).
	touch := []Interval{
		{Resource: "l", Task: 1, Kind: Comm, Start: 0, End: 2},
		{Resource: "l", Task: 2, Kind: Comm, Start: 2, End: 4},
	}
	if err := CheckOverlaps(touch); err != nil {
		t.Errorf("touching intervals rejected: %v", err)
	}
}

func TestSpan(t *testing.T) {
	start, end, ok := Span(sample())
	if !ok || start != 0 || end != 12 {
		t.Errorf("Span = (%d,%d,%v), want (0,12,true)", start, end, ok)
	}
	if _, _, ok := Span(nil); ok {
		t.Error("empty span reported ok")
	}
}

func TestDurationAndString(t *testing.T) {
	iv := Interval{Resource: "link 2", Task: 4, Kind: Comm, Start: 3, End: 9}
	if iv.Duration() != 6 {
		t.Errorf("Duration = %d, want 6", iv.Duration())
	}
	s := iv.String()
	for _, frag := range []string{"link 2", "task4", "comm", "[3,9)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

func TestCSVExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6 (header + 5)", len(lines))
	}
	if lines[0] != "resource,task,kind,start,end" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(buf.String(), "proc 1,2,exec,7,12") {
		t.Errorf("missing record in:\n%s", buf.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out []Interval
	if err := json.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("interval %d: %v vs %v", i, in[i], out[i])
		}
	}
}

func TestSpanTypes(t *testing.T) {
	// Span works with negative (pre-shift) times too.
	ivs := []Interval{{Resource: "l", Task: 1, Kind: Comm, Start: platform.Time(-5), End: -1}}
	start, end, ok := Span(ivs)
	if !ok || start != -5 || end != -1 {
		t.Errorf("negative span = (%d,%d,%v)", start, end, ok)
	}
}
