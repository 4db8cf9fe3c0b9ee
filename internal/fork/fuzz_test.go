package fork

import (
	"testing"

	"repro/internal/platform"
)

// decodeFuzzWalk parses raw fuzz bytes into a leg set and a deadline
// walk for driveWalk. Layout (all bytes, consumed in order, truncation
// anywhere is fine):
//
//	[0]          number of legs, 1..5
//	per leg:     comm (1..8), run length (0..7), then per candidate a
//	             strictly positive Proc increment (1..6)
//	remainder:   pairs of (n selector, deadline) walk steps
//
// The decoder never fails: missing bytes shorten the walk or the runs,
// which keeps every corpus mutation a valid (if small) instance.
func decodeFuzzWalk(data []byte) ([]probeLeg, []walkStep) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	nb, _ := next()
	numLegs := 1 + int(nb%5)
	legs := make([]probeLeg, numLegs)
	total := 0
	for b := range legs {
		cb, ok := next()
		if !ok {
			break
		}
		comm := platform.Time(1 + cb%8)
		lb, ok := next()
		if !ok {
			break
		}
		proc := platform.Time(0)
		for k := 0; k < int(lb%8); k++ {
			ib, ok := next()
			if !ok {
				break
			}
			proc += platform.Time(1 + ib%6)
			legs[b] = append(legs[b], platform.VirtualSlave{Comm: comm, Proc: proc, Leg: b, Rank: k})
			total++
		}
	}
	var walk []walkStep
	for {
		sb, ok := next()
		if !ok {
			break
		}
		db, ok := next()
		if !ok {
			break
		}
		walk = append(walk, walkStep{
			n:        int(sb) % (total + 2),
			deadline: platform.Time(db % 128),
		})
	}
	return legs, walk
}

// FuzzPackerEquivalence drives random candidate streams and deadline
// walks through one reused ceiling packer fed by the retiring merge
// (an origin retires at its first rejection or once its next Proc
// reaches the ceiling) and through the from-scratch ladder (spec
// greedy, slice packer), requiring identical admitted sets and emission
// starts at every probe, at most n + origins offers, and that the spec
// greedy never admits a Proc at or above one it already rejected. The
// seeds mirror the property-test families: a recorded binary search, a
// zig-zag walk with a budget change, Comm and Proc ties across origins,
// and degenerate tiny inputs.
func FuzzPackerEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// Two legs, short runs, ascending then descending deadlines.
	f.Add([]byte{1, 2, 3, 1, 2, 3, 5, 4, 1, 1, 2, 3, 5, 6, 5, 30, 5, 12, 5, 6, 5, 3, 5, 1})
	// Budget change mid-walk (n selector varies).
	f.Add([]byte{2, 1, 4, 2, 2, 2, 2, 7, 3, 1, 1, 5, 3, 20, 9, 20, 1, 9, 9, 40})
	// Equal Comm and Proc across legs: ties broken by leg origin.
	f.Add([]byte{4, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 8, 15, 8, 9, 8, 15, 8, 63})
	// Single leg, long run, exact repeats.
	f.Add([]byte{0, 5, 7, 1, 2, 3, 4, 5, 6, 7, 6, 25, 6, 25, 6, 11, 6, 80, 6, 0})
	// Equal Comm, runs offset by one step: leg b's rank k ties leg b+1's
	// rank k−1 in Proc, so every Proc value appears in two origins.
	f.Add([]byte{2, 1, 5, 0, 0, 0, 0, 0, 1, 5, 1, 0, 0, 0, 0, 1, 5, 2, 0, 0, 0, 0, 30, 7, 30, 5, 30, 9, 30, 6, 30})
	// Proc ties across different Comm: the tie crosses a Comm group.
	f.Add([]byte{2, 0, 4, 1, 1, 1, 1, 1, 4, 1, 1, 1, 1, 2, 4, 1, 1, 1, 1, 40, 6, 40, 8, 40, 10, 40, 12, 40, 14})
	// Many tied origins against a tight deadline: most retire at once.
	f.Add([]byte{4, 0, 3, 2, 2, 2, 0, 3, 2, 2, 2, 0, 3, 2, 2, 2, 0, 3, 2, 2, 2, 0, 3, 2, 2, 2, 60, 5, 60, 7, 60, 9, 2, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		legs, walk := decodeFuzzWalk(data)
		driveWalk(t, legs, walk)
	})
}
