package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiment report golden files")

// TestReportGolden pins the full Report.Format() bytes of the
// experiments whose reports hold no timing: the exhaustive-oracle
// validations (E4, E6, E7, E11) and the baseline comparisons (E8, E9,
// E10). A change to an oracle, a heuristic or a solver that moves any
// number in them fails here; -update-golden rewrites the files, for a
// deliberate change only.
func TestReportGolden(t *testing.T) {
	for _, id := range []string{"E4", "E6", "E7", "E8", "E9", "E10", "E11"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			rep, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Format()
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("report differs from %s:\n%s", path, got)
			}
		})
	}
}
