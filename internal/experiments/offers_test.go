package experiments

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/spider"
)

// TestOfferCountsPinned is a deterministic work-counter gate on the
// msbench E5w-wide and E6-cold cells: one cold MinMakespan per cell must
// run exactly the pinned feasibility probes, packing probes and packer
// offers, and every packing probe must stay within n + legs offers.
// Unlike a wall-clock guard it cannot pass or fail with host load; a
// change that streams more of the candidate runs through the packer
// fails it. The counts do not depend on GOMAXPROCS: parallel leg growth
// builds the same plans in any schedule.
func TestOfferCountsPinned(t *testing.T) {
	cells := []struct {
		family string
		sp     platform.Spider
		n      int
		probes int
		packs  int
		offers int64
	}{
		{"E5w-wide", wideSpider(256), 512, 6, 7, 3590},
		{"E5w-wide", wideSpider(256), 1024, 6, 7, 7174},
		{"E6-cold-dup", dupHeavySpider(256), 512, 8, 9, 4616},
		{"E6-cold-dup", dupHeavySpider(1024), 512, 8, 9, 4608},
		{"E6-cold-distinct", distinctSpider(256), 512, 1, 2, 1025},
		{"E6-cold-distinct", distinctSpider(1024), 512, 1, 2, 1025},
	}
	for _, c := range cells {
		legs := c.sp.NumLegs()
		t.Run(fmt.Sprintf("%s/legs=%d/n=%d", c.family, legs, c.n), func(t *testing.T) {
			s, err := spider.NewSolver(c.sp)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.MinMakespan(c.n); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if bound := int64(st.PackProbes) * int64(c.n+legs); st.Offered > bound {
				t.Errorf("%d offers over %d packing probes, want ≤ %d (n + legs per probe)", st.Offered, st.PackProbes, bound)
			}
			if st.Probes != c.probes || st.PackProbes != c.packs || st.Offered != c.offers {
				t.Errorf("probes=%d pack_probes=%d offered=%d, pinned probes=%d pack_probes=%d offered=%d",
					st.Probes, st.PackProbes, st.Offered, c.probes, c.packs, c.offers)
			}
		})
	}
}
