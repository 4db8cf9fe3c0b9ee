package experiments

import (
	"maps"
	"testing"

	"repro/internal/obs"
)

// TestPerOpPhasesScalesToOneProbe pins the unit of the E5p-loop cell's
// phase_ns: a breakdown traced over a whole deadline walk is divided by
// the walk's length, so it is per probe like the cell's ns_per_op, and
// a phase the walk never entered stays out of the map.
func TestPerOpPhasesScalesToOneProbe(t *testing.T) {
	var walk obs.PhaseSnapshot
	walk.Ns[obs.PhasePack] = 7 * 51_700
	walk.Ns[obs.PhaseMerge] = 7 * 1_200
	walk.Ns[obs.PhaseExtract] = 3 // under one ns per probe
	walk.Spans[obs.PhasePack] = 7

	got := perOpPhases(walk, 7)
	want := map[string]int64{
		obs.PhasePack.String():  51_700,
		obs.PhaseMerge.String(): 1_200,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("perOpPhases = %v, want %v", got, want)
	}
	if walk.Ns[obs.PhasePack] != 7*51_700 {
		t.Fatal("perOpPhases modified its caller's snapshot")
	}
}
