package sched

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// The encoding/json writers below define the schedule file format: the
// reflection-free appenders must reproduce their bytes exactly.

func refWriteChainSchedule(s *ChainSchedule) []byte {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return refWriteEnvelope(scheduleEnvelope{Kind: "chain", Chain: raw})
}

func refWriteSpiderSchedule(s *SpiderSchedule) []byte {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return refWriteEnvelope(scheduleEnvelope{Kind: "spider", Spider: raw})
}

func refWriteEnvelope(env scheduleEnvelope) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkAppenders compares both appenders (into an empty and into a
// non-empty buffer) and both writers with the reference encoding.
func checkAppenders(t *testing.T, cs *ChainSchedule, ss *SpiderSchedule) {
	t.Helper()
	prefix := []byte("prefix")
	want := refWriteChainSchedule(cs)
	if got := AppendChainSchedule(nil, cs); !bytes.Equal(got, want) {
		t.Fatalf("AppendChainSchedule:\n%s\nwant:\n%s", got, want)
	}
	if got := AppendChainSchedule(bytes.Clone(prefix), cs); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Fatalf("AppendChainSchedule after a prefix:\n%s", got)
	}
	var buf bytes.Buffer
	if err := WriteChainSchedule(&buf, cs); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteChainSchedule: %v\n%s", err, buf.Bytes())
	}
	want = refWriteSpiderSchedule(ss)
	if got := AppendSpiderSchedule(nil, ss); !bytes.Equal(got, want) {
		t.Fatalf("AppendSpiderSchedule:\n%s\nwant:\n%s", got, want)
	}
	if got := AppendSpiderSchedule(bytes.Clone(prefix), ss); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
		t.Fatalf("AppendSpiderSchedule after a prefix:\n%s", got)
	}
	buf.Reset()
	if err := WriteSpiderSchedule(&buf, ss); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSpiderSchedule: %v\n%s", err, buf.Bytes())
	}
}

func TestAppendersMatchReference(t *testing.T) {
	checkAppenders(t, handSchedule(), handSpiderSchedule())
	checkAppenders(t, nil, nil)
	checkAppenders(t, &ChainSchedule{}, &SpiderSchedule{})
	checkAppenders(t,
		&ChainSchedule{Chain: platform.Chain{Nodes: []platform.Node{}}, Tasks: []ChainTask{}},
		&SpiderSchedule{Spider: platform.Spider{Legs: []platform.Chain{}}, Tasks: []SpiderTask{}})
	checkAppenders(t,
		&ChainSchedule{Tasks: []ChainTask{{}, {Proc: 1, Comms: []platform.Time{}}}},
		&SpiderSchedule{
			Spider: platform.Spider{Legs: []platform.Chain{{}, {Nodes: []platform.Node{}}, platform.NewChain(math.MaxInt64, math.MinInt64)}},
			Tasks:  []SpiderTask{{Leg: -1}, {Leg: 2, ChainTask: ChainTask{Proc: 1, Start: -7, Comms: []platform.Time{math.MinInt64}}}},
		})
	for seed := int64(0); seed < 200; seed++ {
		cs, ss := randomSchedules(seed, uint8(seed), uint8(seed*7), uint8(seed*13))
		checkAppenders(t, cs, ss)
	}
}

// randomSchedules builds a chain and a spider schedule from fuzz
// inputs. Shape bits force nil or empty leg, node, task and comms
// slices; values mix small, negative and extreme int64s. The schedules
// need not be feasible: the encoders never check.
func randomSchedules(seed int64, legs, tasks, shape uint8) (*ChainSchedule, *SpiderSchedule) {
	rng := rand.New(rand.NewSource(seed))
	val := func() platform.Time {
		switch rng.Intn(8) {
		case 0:
			return math.MaxInt64
		case 1:
			return math.MinInt64
		case 2:
			return platform.Time(-rng.Intn(1000))
		default:
			return platform.Time(rng.Intn(100000))
		}
	}
	nodes := func() []platform.Node {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []platform.Node{}
		}
		ns := make([]platform.Node, 1+rng.Intn(4))
		for i := range ns {
			ns[i] = platform.Node{Comm: val(), Work: val()}
		}
		return ns
	}
	task := func() ChainTask {
		t := ChainTask{Proc: rng.Intn(6) - 1, Start: val()}
		switch rng.Intn(5) {
		case 0: // nil Comms
		case 1:
			t.Comms = []platform.Time{}
		default:
			t.Comms = make([]platform.Time, 1+rng.Intn(5))
			for k := range t.Comms {
				t.Comms[k] = val()
			}
		}
		return t
	}
	cs := &ChainSchedule{Chain: platform.Chain{Nodes: nodes()}}
	ss := &SpiderSchedule{}
	if shape&1 == 0 {
		ss.Spider.Legs = make([]platform.Chain, int(legs)%24)
		for i := range ss.Spider.Legs {
			ss.Spider.Legs[i].Nodes = nodes()
		}
	}
	if shape&2 == 0 {
		cs.Tasks = make([]ChainTask, int(tasks)%32)
		ss.Tasks = make([]SpiderTask, int(tasks)%32)
		for i := range cs.Tasks {
			cs.Tasks[i] = task()
			ss.Tasks[i] = SpiderTask{Leg: rng.Intn(max(int(legs)%24, 1)), ChainTask: task()}
		}
	}
	if shape&4 != 0 && len(ss.Tasks) > 0 {
		ss.Tasks[0].Comms = nil
	}
	return cs, ss
}

// FuzzScheduleEncode compares the reflection-free appenders with the
// encoding/json reference on random chain and spider schedules.
func FuzzScheduleEncode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(4), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(9), uint8(1))
	f.Add(int64(5), uint8(17), uint8(31), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, legs, tasks, shape uint8) {
		cs, ss := randomSchedules(seed, legs, tasks, shape)
		checkAppenders(t, cs, ss)
	})
}

// TestAppendSpiderScheduleAllocs pins the appender's allocation floor:
// into a buffer with room it allocates nothing, and into nil it grows
// once from its size estimate on a typical wide schedule.
func TestAppendSpiderScheduleAllocs(t *testing.T) {
	legs := make([]platform.Chain, 512)
	for i := range legs {
		legs[i] = platform.NewChain(platform.Time(i%7+1), 5, 3, 9)
	}
	s := &SpiderSchedule{Spider: platform.NewSpider(legs...)}
	for i := 0; i < 256; i++ {
		s.Tasks = append(s.Tasks, SpiderTask{Leg: i, ChainTask: ChainTask{Proc: 2, Start: platform.Time(100 * i), Comms: []platform.Time{platform.Time(i), platform.Time(i + 3)}}})
	}
	want := refWriteSpiderSchedule(s)
	buf := make([]byte, 0, 2*len(want))
	if got := testing.AllocsPerRun(20, func() { buf = AppendSpiderSchedule(buf[:0], s) }); got != 0 {
		t.Errorf("AppendSpiderSchedule into a sized buffer: %.0f allocs, want 0", got)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("AppendSpiderSchedule differs from the reference")
	}
	if got := testing.AllocsPerRun(20, func() { buf = AppendSpiderSchedule(nil, s) }); got > 1 {
		t.Errorf("AppendSpiderSchedule into nil: %.0f allocs, want at most 1 (size estimate too small)", got)
	}
}

// BenchmarkScheduleEncode writes a 256-task schedule on a 1024-leg
// spider with the appender and with the encoding/json reference.
func BenchmarkScheduleEncode(b *testing.B) {
	legs := make([]platform.Chain, 1024)
	for i := range legs {
		legs[i] = platform.NewChain(platform.Time(i%7+1), 5, 3, 9)
	}
	s := &SpiderSchedule{Spider: platform.NewSpider(legs...)}
	for i := 0; i < 256; i++ {
		s.Tasks = append(s.Tasks, SpiderTask{Leg: i, ChainTask: ChainTask{Proc: 2, Start: platform.Time(100 * i), Comms: []platform.Time{platform.Time(i), platform.Time(i + 3)}}})
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AppendSpiderSchedule(nil, s)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refWriteSpiderSchedule(s)
		}
	})
}
