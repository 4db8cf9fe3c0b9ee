package platform_test

import (
	"encoding/json"
	"testing"

	"repro/internal/platform"
	"repro/internal/service"
)

// TestRequestEnvelopesTakeFastPath: every envelope the service's request
// builders produce — as built, and compacted the way json.Marshal sends
// it inside a /solve body — decodes on the canonical path, never the
// encoding/json fallback.
func TestRequestEnvelopesTakeFastPath(t *testing.T) {
	g := platform.MustGenerator(5, 1, 30, platform.Uniform)
	var reqs []*service.Request
	add := func(r *service.Request, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	add(service.NewRequest(g.Chain(4), service.OpMinMakespan, 8, 0))
	add(service.NewRequest(g.Spider(16, 3), service.OpMaxTasks, 8, 40))
	add(service.NewRequest(g.Fork(16), service.OpScheduleWithin, 8, 40))
	add(service.NewRequest(g.Tree(3, 3), service.OpMinMakespan, 8, 0))
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var wire service.Request
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		for _, env := range [][]byte{req.Platform, wire.Platform} {
			if _, ok := platform.DecodeCanonical(env); !ok {
				t.Errorf("request envelope fell back to encoding/json: %.200s", env)
			}
		}
	}
}
