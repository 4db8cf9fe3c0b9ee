package main

import (
	"bytes"
	"testing"
	"time"
)

var allWorkloads = []string{wServeWarm, wWarmProbe, wColdBuild}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range allWorkloads {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 2)
		c, _ := generate(w, 8, 2)
		if !bytes.Equal(a.encodeStreams(), b.encodeStreams()) {
			t.Errorf("%s: seed 7 gave two different request streams", w)
		}
		if bytes.Equal(a.encodeStreams(), c.encodeStreams()) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
	}
}

// TestSameSeedSameAnswers runs each workload twice on one seed and
// compares the answers both runs gave to the requests both reached.
func TestSameSeedSameAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range allWorkloads {
		var runs [2]*run
		for i := range runs {
			r, _ := runOnce(t, w, 1)
			runs[i] = r
		}
		compared := 0
		for c := range runs[0].workers {
			a, b := runs[0].workers[c].out, runs[1].workers[c].out
			for i := 0; i < min(len(a), len(b)); i++ {
				if a[i].tasks != b[i].tasks || a[i].makespan != b[i].makespan || a[i].failed || b[i].failed {
					t.Fatalf("%s client %d request %d: answers %d/%d and %d/%d", w, c, i, a[i].tasks, a[i].makespan, b[i].tasks, b[i].makespan)
				}
				compared++
			}
		}
		if compared == 0 {
			t.Errorf("%s: no requests to compare", w)
		}
	}
}

func TestColdBuildPlatformsDistinct(t *testing.T) {
	in, _ := generate(wColdBuild, 3, 2)
	seen := map[string]bool{}
	for _, p := range append(in.plats, in.primers...) {
		h := p.hash.String()
		if seen[h] {
			t.Fatalf("platform hash %s appears twice", h)
		}
		seen[h] = true
	}
}

func TestWarmProbePartitionsDisjoint(t *testing.T) {
	in, _ := generate(wWarmProbe, 3, 2)
	client := map[int32]int{}
	for c, stream := range in.streams {
		for _, q := range stream {
			if other, ok := client[q.plat]; ok && other != c {
				t.Fatalf("clients %d and %d both query platform %d", other, c, q.plat)
			}
			client[q.plat] = c
		}
	}
	if len(in.streams) != 2 || len(client) != len(in.plats) {
		t.Fatalf("%d streams query %d of %d platforms", len(in.streams), len(client), len(in.plats))
	}
}

// TestDistinctQueriesUnderMemoCap checks, on streams sized for a minute
// at each workload's planned rate, that no platform sees memoCap
// distinct scalar queries, and that warm-probe never repeats a key.
// Cold-build asks each platform once, so a short stream covers it.
func TestDistinctQueriesUnderMemoCap(t *testing.T) {
	seconds := map[string]int{wServeWarm: 60, wWarmProbe: 60, wColdBuild: 2}
	for _, w := range allWorkloads {
		in, _ := generate(w, 5, seconds[w])
		keys := map[qkey]int{}
		perPlat := map[int32]int{}
		for _, qs := range append([][]query{in.warm}, in.streams...) {
			for _, q := range qs {
				if q.class == classSchedule {
					continue
				}
				k := q.key()
				if keys[k] == 0 {
					perPlat[q.plat]++
				}
				keys[k]++
			}
		}
		for p, n := range perPlat {
			if n >= memoCap {
				t.Errorf("%s: platform %d gets %d distinct scalar queries, memo holds %d", w, p, n, memoCap)
			}
		}
		if w == wWarmProbe {
			for k, n := range keys {
				if n > 1 {
					t.Errorf("warm-probe repeats %+v %d times", k, n)
				}
			}
		}
	}
}

func TestGateFlagsWrongAnswer(t *testing.T) {
	r, epoch := runOnce(t, wColdBuild, 1)
	g := runGate(r, epoch)
	if len(g.errs) != 0 || g.exact[0] != len(r.workers[0].out) {
		t.Fatalf("clean run: gate errors %v, exact %d of %d", g.errs, g.exact[0], len(r.workers[0].out))
	}
	if g.brute == 0 {
		t.Error("no query was cross-checked by brute force")
	}
	r.workers[0].out[0].makespan++
	g = runGate(r, epoch)
	if len(g.errs) == 0 || g.exact[0] != len(r.workers[0].out)-1 {
		t.Fatalf("corrupted answer: gate errors %v, exact %d of %d", g.errs, g.exact[0], len(r.workers[0].out))
	}
}

func runOnce(t *testing.T, workload string, seconds int) (*run, time.Time) {
	t.Helper()
	in, err := generate(workload, 11, seconds)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	var r *run
	switch workload {
	case wServeWarm:
		r, err = runServeWarm(in, seconds, 0, epoch)
	case wWarmProbe:
		r, err = runWarmProbe(in, seconds, 0, epoch)
	default:
		r, err = runColdBuild(in, seconds, 0, epoch)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(r.shapeErrs) != 0 {
		t.Fatalf("%s: workload shape: %v", workload, r.shapeErrs)
	}
	return r, epoch
}
