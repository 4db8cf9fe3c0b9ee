package cli

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/platform"
)

func TestParseChain(t *testing.T) {
	ch, err := ParseChain("2,5,3,3")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Len() != 2 || ch.Comm(1) != 2 || ch.Work(2) != 3 {
		t.Errorf("parsed %v", ch)
	}
	// Whitespace tolerated.
	if _, err := ParseChain(" 1 , 2 "); err != nil {
		t.Errorf("whitespace rejected: %v", err)
	}
	for _, bad := range []string{"", "1", "1,2,3", "a,b", "0,1", "-1,2"} {
		if _, err := ParseChain(bad); err == nil {
			t.Errorf("ParseChain(%q) accepted", bad)
		}
	}
}

func TestParseSpider(t *testing.T) {
	sp, err := ParseSpider("2,5,3,3;1,4")
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumLegs() != 2 || sp.NumProcs() != 3 {
		t.Errorf("parsed %v", sp)
	}
	for _, bad := range []string{"", ";", "1,2;", "1,2;0,3"} {
		if _, err := ParseSpider(bad); err == nil {
			t.Errorf("ParseSpider(%q) accepted", bad)
		}
	}
}

func TestLoadPlatform(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.WriteChain(f, platform.NewChain(2, 5, 3, 3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dec, err := LoadPlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != "chain" || dec.Chain.Len() != 2 {
		t.Errorf("loaded %+v", dec)
	}
	if _, err := LoadPlatform(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestParseRegime(t *testing.T) {
	for name, want := range map[string]platform.Heterogeneity{
		"uniform":       platform.Uniform,
		"comm-bound":    platform.CommBound,
		"compute-bound": platform.ComputeBound,
		"bimodal":       platform.Bimodal,
	} {
		got, err := ParseRegime(name)
		if err != nil || got != want {
			t.Errorf("ParseRegime(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseRegime("zipf"); err == nil {
		t.Error("unknown regime accepted")
	}
}
