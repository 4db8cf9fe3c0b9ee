// Package cli holds the small parsing and loading helpers shared by the
// command-line tools (cmd/msched, cmd/msbench, cmd/msgen, cmd/msverify),
// kept out of the mains so they are unit-testable.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/platform"
)

// ParseChain parses an inline chain spec: comma-separated (c, w) pairs,
// e.g. "2,3,3,5" for the paper's Fig. 2 chain.
func ParseChain(spec string) (platform.Chain, error) {
	vals, err := parseTimes(spec)
	if err != nil {
		return platform.Chain{}, fmt.Errorf("cli: chain spec %q: %w", spec, err)
	}
	if len(vals) == 0 || len(vals)%2 != 0 {
		return platform.Chain{}, fmt.Errorf("cli: chain spec %q: want an even, positive number of values (c,w pairs)", spec)
	}
	ch := platform.NewChain(vals...)
	if err := ch.Validate(); err != nil {
		return platform.Chain{}, err
	}
	return ch, nil
}

// ParseSpider parses an inline spider spec: semicolon-separated chain
// specs, e.g. "2,5,3,3;1,4".
func ParseSpider(spec string) (platform.Spider, error) {
	var legs []platform.Chain
	for i, legSpec := range strings.Split(spec, ";") {
		leg, err := ParseChain(strings.TrimSpace(legSpec))
		if err != nil {
			return platform.Spider{}, fmt.Errorf("cli: spider leg %d: %w", i, err)
		}
		legs = append(legs, leg)
	}
	sp := platform.Spider{Legs: legs}
	if err := sp.Validate(); err != nil {
		return platform.Spider{}, err
	}
	return sp, nil
}

func parseTimes(spec string) ([]platform.Time, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	vals := make([]platform.Time, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("value %q is not an integer", p)
		}
		vals = append(vals, platform.Time(v))
	}
	return vals, nil
}

// LoadPlatform reads a tagged platform JSON file. Decode and validation
// failures name the offending file so tool errors point somewhere
// actionable.
func LoadPlatform(path string) (platform.Decoded, error) {
	f, err := os.Open(path)
	if err != nil {
		return platform.Decoded{}, fmt.Errorf("cli: opening platform file: %w", err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return platform.Decoded{}, fmt.Errorf("cli: reading platform file %s: %w", path, err)
	}
	dec, err := platform.Decode(b)
	if err != nil {
		return platform.Decoded{}, fmt.Errorf("cli: platform file %s: %w", path, err)
	}
	return dec, nil
}

// ParseRegime maps a regime name to the generator constant.
func ParseRegime(name string) (platform.Heterogeneity, error) {
	switch name {
	case "uniform":
		return platform.Uniform, nil
	case "comm-bound":
		return platform.CommBound, nil
	case "compute-bound":
		return platform.ComputeBound, nil
	case "bimodal":
		return platform.Bimodal, nil
	default:
		return 0, fmt.Errorf("cli: unknown regime %q (want uniform, comm-bound, compute-bound or bimodal)", name)
	}
}
