package fork

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/opt"
	"repro/internal/platform"
)

// packCountWithOrder runs the greedy admission scanning candidates in
// the given order (the algorithm's only free design choice) and returns
// the number admitted.
func packCountWithOrder(order []platform.VirtualSlave, n int, deadline platform.Time) int {
	var selected []platform.VirtualSlave
	for _, cand := range order {
		if len(selected) == n {
			break
		}
		if trial := insertByProc(selected, cand); packFeasible(trial, deadline) {
			selected = trial
		}
	}
	return len(selected)
}

// TestAdmissionOrderAblation shows the §6 admission order — ascending
// communication time, ties by ascending processing time — is
// load-bearing: plausible alternatives (descending communication,
// processing-time-first) admit strictly fewer tasks than the optimum on
// a measurable fraction of the exhaustive two-slave family, while the
// canonical order never does.
func TestAdmissionOrderAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive ablation skipped in -short mode")
	}
	descLosses, procFirstLosses, canonicalLosses, total := 0, 0, 0, 0
	platform.EnumerateChains(2, 3, func(ch platform.Chain) bool {
		f := platform.Fork{Slaves: ch.Nodes}
		for _, deadline := range []platform.Time{3, 5, 7, 9, 12} {
			want, err := opt.BruteForkMaxTasks(f, 4, deadline)
			if err != nil {
				t.Fatal(err)
			}
			vs := expandFork(f, 4)

			canonical := append([]platform.VirtualSlave(nil), vs...)
			slices.SortFunc(canonical, platform.CompareVirtualSlaves)
			if packCountWithOrder(canonical, 4, deadline) != want {
				canonicalLosses++
			}

			desc := append([]platform.VirtualSlave(nil), vs...)
			sort.SliceStable(desc, func(i, j int) bool { return desc[i].Comm > desc[j].Comm })
			if packCountWithOrder(desc, 4, deadline) != want {
				descLosses++
			}

			procFirst := append([]platform.VirtualSlave(nil), vs...)
			sort.SliceStable(procFirst, func(i, j int) bool {
				if procFirst[i].Proc != procFirst[j].Proc {
					return procFirst[i].Proc < procFirst[j].Proc
				}
				return procFirst[i].Comm < procFirst[j].Comm
			})
			if packCountWithOrder(procFirst, 4, deadline) != want {
				procFirstLosses++
			}
			total++
		}
		return true
	})
	if canonicalLosses != 0 {
		t.Errorf("canonical order suboptimal on %d/%d cases", canonicalLosses, total)
	}
	if descLosses == 0 {
		t.Error("descending-comm order never lost: the ablation family no longer discriminates")
	}
	if procFirstLosses == 0 {
		t.Error("processing-time-first order never lost: the ablation family no longer discriminates")
	}
	t.Logf("ablation: canonical 0/%d losses, desc-comm %d/%d, proc-first %d/%d",
		total, descLosses, total, procFirstLosses, total)
}
