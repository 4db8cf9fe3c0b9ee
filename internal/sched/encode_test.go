package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestChainScheduleRoundTrip(t *testing.T) {
	s := handSchedule()
	var buf bytes.Buffer
	if err := WriteChainSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "chain" || dec.Chain == nil {
		t.Fatalf("decoded kind %q", dec.Kind)
	}
	got := dec.Chain
	if got.Len() != s.Len() || got.Makespan() != s.Makespan() {
		t.Errorf("round trip: len %d/%d makespan %d/%d", got.Len(), s.Len(), got.Makespan(), s.Makespan())
	}
	if err := got.Verify(); err != nil {
		t.Errorf("round-tripped schedule infeasible: %v", err)
	}
	for i := range s.Tasks {
		if got.Tasks[i].Proc != s.Tasks[i].Proc || got.Tasks[i].Start != s.Tasks[i].Start {
			t.Errorf("task %d mismatch: %+v vs %+v", i+1, got.Tasks[i], s.Tasks[i])
		}
	}
}

func TestSpiderScheduleRoundTrip(t *testing.T) {
	s := handSpiderSchedule()
	var buf bytes.Buffer
	if err := WriteSpiderSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "spider" || dec.Spider == nil {
		t.Fatalf("decoded kind %q", dec.Kind)
	}
	got := dec.Spider
	if got.Len() != s.Len() || got.Makespan() != s.Makespan() {
		t.Errorf("round trip: len %d/%d makespan %d/%d", got.Len(), s.Len(), got.Makespan(), s.Makespan())
	}
	if err := got.Verify(); err != nil {
		t.Errorf("round-tripped schedule infeasible: %v", err)
	}
	for i := range s.Tasks {
		if got.Tasks[i].Leg != s.Tasks[i].Leg {
			t.Errorf("task %d leg %d, want %d", i+1, got.Tasks[i].Leg, s.Tasks[i].Leg)
		}
	}
}

func TestReadScheduleRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "]]]",
		"unknown kind": `{"kind":"tree"}`,
		"bad chain":    `{"kind":"chain","chain_schedule":[]}`,
		"bad spider":   `{"kind":"spider","spider_schedule":"x"}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadSchedule(strings.NewReader(doc)); err == nil {
				t.Errorf("accepted %q", doc)
			}
		})
	}
}

func TestReadScheduleDoesNotVerify(t *testing.T) {
	// An infeasible schedule must decode fine; verification is the
	// caller's explicit step (cmd/msverify's whole purpose).
	s := handSchedule()
	s.Tasks[0].Start = 0 // violates condition 2
	var buf bytes.Buffer
	if err := WriteChainSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatalf("infeasible schedule failed to decode: %v", err)
	}
	if err := dec.Chain.Verify(); err == nil {
		t.Error("round trip lost the infeasibility")
	}
}

// FuzzReadSchedule holds the schedule reader to its contract on
// arbitrary bytes, as msverify feeds it user files: a decoded schedule
// or an error, never a panic. Every document it accepts re-encodes
// through the appenders and decodes again to the same value.
func FuzzReadSchedule(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte(`{"kind":"chain","chain_schedule":null}`))
	f.Add(AppendChainSchedule(nil, handSchedule()))
	f.Add(AppendSpiderSchedule(nil, handSpiderSchedule()))
	f.Add(AppendChainSchedule(nil, &ChainSchedule{}))
	f.Add(AppendSpiderSchedule(nil, &SpiderSchedule{}))
	f.Add(AppendChainSchedule(nil, &ChainSchedule{Chain: platform.Chain{Nodes: []platform.Node{}}, Tasks: []ChainTask{{Comms: []platform.Time{}}}}))
	f.Add(AppendSpiderSchedule(nil, &SpiderSchedule{Spider: platform.Spider{Legs: []platform.Chain{{}}}, Tasks: []SpiderTask{}}))
	for seed := int64(0); seed < 4; seed++ {
		cs, ss := randomSchedules(seed, uint8(seed), uint8(3*seed), uint8(seed))
		f.Add(AppendChainSchedule(nil, cs))
		f.Add(AppendSpiderSchedule(nil, ss))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		dec, err := ReadSchedule(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var again []byte
		switch {
		case dec.Kind == "chain" && dec.Chain != nil && dec.Spider == nil:
			again = AppendChainSchedule(nil, dec.Chain)
		case dec.Kind == "spider" && dec.Spider != nil && dec.Chain == nil:
			again = AppendSpiderSchedule(nil, dec.Spider)
		default:
			t.Fatalf("accepted %q as kind %q, chain %v, spider %v", doc, dec.Kind, dec.Chain != nil, dec.Spider != nil)
		}
		back, err := ReadSchedule(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded %q does not decode: %v\n%s", doc, err, again)
		}
		if !reflect.DeepEqual(back, dec) {
			t.Fatalf("round trip of %q changed the schedule:\n%+v\nwant\n%+v", doc, back, dec)
		}
	})
}
