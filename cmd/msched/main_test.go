package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/tree"
)

func TestRunChainInline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-chain", "2,3,3,5", "-n", "5", "-gantt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"makespan: 14", "task 1", "link 1", "steady-state lower bound"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRunSpiderInline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-spider", "2,3,3,5;1,4", "-n", "6"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spider schedule: 6 tasks") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunDeadlineMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-chain", "2,3,3,5", "-n", "9", "-deadline", "14"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadline 14: scheduled 5 of 9 tasks") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunPlatformFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.WriteFork(f, platform.NewFork(1, 3, 2, 2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"-platform", path, "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spider schedule: 4 tasks") {
		t.Errorf("fork platform not scheduled as spider:\n%s", out.String())
	}
}

// TestRunTreePlatformFile: a tree platform file schedules through the
// unified API — the §8 cover — and the JSON artifact is a feasible
// spider schedule matching the tree engine's own (tree.Schedule).
func TestRunTreePlatformFile(t *testing.T) {
	tr := repro.Tree{Roots: []repro.TreeNode{
		{Comm: 1, Work: 4, Children: []repro.TreeNode{
			{Comm: 1, Work: 2},
			{Comm: 2, Work: 3},
		}},
		{Comm: 3, Work: 2},
	}}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.WriteTree(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	js := filepath.Join(dir, "s.json")
	var out bytes.Buffer
	if err := run([]string{"-platform", path, "-n", "8", "-json", js}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"platform: tree{", "spider schedule: 8 tasks", "steady-state lower bound"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}

	wantMk, wantSched, _, err := tree.Schedule(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("makespan: %d", wantMk)) {
		t.Errorf("output does not carry tree.Schedule's makespan %d:\n%s", wantMk, out.String())
	}
	jf, err := os.Open(js)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	dec, err := sched.ReadSchedule(jf)
	if err != nil || dec.Kind != "spider" {
		t.Fatalf("tree schedule artifact: %v %+v", err, dec)
	}
	if !dec.Spider.Equal(wantSched) {
		t.Error("artifact schedule differs from direct tree.Schedule")
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "g.svg")
	js := filepath.Join(dir, "s.json")
	var out bytes.Buffer
	err := run([]string{"-chain", "2,3,3,5", "-n", "3", "-svg", svg, "-json", js}, &out)
	if err != nil {
		t.Fatal(err)
	}
	svgData, err := os.ReadFile(svg)
	if err != nil || !strings.HasPrefix(string(svgData), "<svg") {
		t.Errorf("SVG artifact broken: %v", err)
	}
	jf, err := os.Open(js)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	dec, err := sched.ReadSchedule(jf)
	if err != nil || dec.Kind != "chain" || dec.Chain.Len() != 3 {
		t.Errorf("JSON artifact broken: %v %+v", err, dec)
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // no platform
		{"-chain", "1,2", "-spider", "1,2"}, // two platforms
		{"-chain", "0,2", "-n", "1"},        // invalid chain
		{"-spider", "oops", "-n", "1"},      // unparsable spider
		{"-platform", "/does/not/exist", "-n", "1"}, // missing file
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRunMalformedPlatformFiles: every malformed platform file must
// produce a clear error — naming what went wrong — and never a panic.
func TestRunMalformedPlatformFiles(t *testing.T) {
	cases := []struct {
		name    string
		content string
		wantMsg string
	}{
		{"not json", `this is not json`, "decoding platform file"},
		{"array envelope", `[1,2,3]`, "decoding platform file"},
		{"unknown kind", `{"kind":"noodle"}`, "unknown platform kind"},
		{"missing body", `{"kind":"chain"}`, "decoding chain body"},
		{"null body", `{"kind":"chain","chain":null}`, "chain has no processors"},
		{"wrong body shape", `{"kind":"chain","chain":[]}`, "decoding chain body"},
		{"empty chain", `{"kind":"chain","chain":{"nodes":[]}}`, "chain has no processors"},
		{"zero latency", `{"kind":"spider","spider":{"legs":[{"nodes":[{"c":0,"w":1}]}]}}`, "link latency 0 is not positive"},
		{"negative work", `{"kind":"fork","fork":{"slaves":[{"c":1,"w":-3}]}}`, "processing time -3 is not positive"},
		{"empty fork", `{"kind":"fork","fork":{"slaves":[]}}`, "fork has no slaves"},
		{"empty spider", `{"kind":"spider","spider":{"legs":[]}}`, "spider has no legs"},
		{"truncated file", `{"kind":"spider","spider":{"legs":[{"nodes":[{"c":`, "decoding platform file"},
		{"empty tree", `{"kind":"tree","tree":{"roots":[]}}`, "tree: no processors"},
		{"tree zero work", `{"kind":"tree","tree":{"roots":[{"c":1,"w":2,"children":[{"c":3,"w":0}]}]}}`, "non-positive parameters"},
		{"oversized tree node", `{"kind":"tree","tree":{"roots":[{"c":1,"w":1,"children":[{"c":4611686018427387904,"w":4611686018427387904}]}]}}`, "overflows the integral time range"},
		{"overflowing values", `{"kind":"chain","chain":{"nodes":[{"c":4611686018427387904,"w":4611686018427387904}]}}`, "overflows the integral time range"},
		{"values wrapping positive", `{"kind":"chain","chain":{"nodes":[{"c":9223372036854775807,"w":1}]}}`, "overflows the integral time range"},
		{"oversized leg beside sane leg", `{"kind":"spider","spider":{"legs":[{"nodes":[{"c":1,"w":1}]},{"nodes":[{"c":4611686018427387904,"w":4611686018427387904}]}]}}`, "overflows the integral time range"},
		{"oversized deep node behind sane head", `{"kind":"chain","chain":{"nodes":[{"c":1,"w":1},{"c":4611686018427387904,"w":1},{"c":4611686018427387904,"w":1},{"c":4611686018427387904,"w":1}]}}`, "overflows the integral time range"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run([]string{"-platform", path, "-n", "3"}, &out)
			if err == nil {
				t.Fatalf("malformed platform accepted; output:\n%s", out.String())
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
			if strings.Contains(err.Error(), "internal error") {
				t.Errorf("malformed input surfaced as an internal error: %q", err)
			}
		})
	}
}
