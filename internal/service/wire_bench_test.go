package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// platformSink keeps the benchmarked platform lookups from being
// optimised away.
var platformSink []byte

// BenchmarkWire times each /solve hop's codec call against the
// encoding/json call it replaces, on a 20-leg spider request and its
// memo-hit answer, and on a 256-task schedule answer for a 1024-leg
// spider:
//
//	go test -run '^$' -bench BenchmarkWire -benchmem ./internal/service
func BenchmarkWire(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	req, err := NewRequest(dupSpider(rng, 20, 20), OpMaxTasks, 64, 400)
	if err != nil {
		b.Fatal(err)
	}
	body, err := AppendRequest(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Config{})
	var resp *Response
	for i := 0; i < 3; i++ {
		if resp, err = svc.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	out, err := AppendResponse(nil, resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("request %d B, memo-hit response %d B", len(body), len(out))
	run := func(name string, f func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	buf := make([]byte, 0, 4096)
	run("client-encode/codec", func() error { _, err := AppendRequest(buf[:0], req); return err })
	run("client-encode/encoding-json", func() error { _, err := json.Marshal(req); return err })
	run("router-lookup/codec", func() error { platformSink = RequestPlatform(body); return nil })
	run("router-lookup/encoding-json", func() error { platformSink = refRequestPlatform(body); return nil })
	run("router-place", func() error {
		d, err := platform.Decode(RequestPlatform(body))
		d.Hash()
		return err
	})
	run("shard-decode/codec", func() error { _, err := DecodeRequest(body); return err })
	run("shard-decode/encoding-json", func() error {
		var r Request
		return json.NewDecoder(bytes.NewReader(body)).Decode(&r)
	})
	run("shard-encode/codec", func() error { _, err := AppendResponse(buf[:0], resp); return err })
	run("shard-encode/encoding-json", func() error { _, err := refAppendResponse(resp); return err })
	wide, err := NewRequest(dupSpider(rng, 1024, 6), OpMinMakespan, 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	wide.IncludeSchedule = true
	big, err := svc.Solve(context.Background(), wide)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("1024-leg schedule response: %d B schedule", len(big.Schedule))
	run("shard-encode-schedule/codec", func() error {
		_, err := AppendResponse(make([]byte, 0, responseSize(big)), big)
		return err
	})
	run("shard-encode-schedule/encoding-json", func() error { _, err := refAppendResponse(big); return err })
	run("client-decode/codec", func() error { _, err := DecodeResponse(out); return err })
	run("client-decode/encoding-json", func() error { _, err := refDecodeResponse(out); return err })
}
