package datagen

// Calibration tests: the simulators must reproduce the *structural* facts
// about the paper's real datasets that the experiments depend on. These run
// the actual closed miners, so they are skipped under -short.

import (
	"context"
	"testing"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/engine"
	"repro/internal/minertest"
)

func TestReplaceClosedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the full Replace closed set")
	}
	d, paths := Replace(1)
	minCount := d.MinCount(0.03)
	res := minertest.Mine(t, context.Background(), charm.Name, d, engine.Options{MinCount: minCount})
	if res.Stopped {
		t.Fatal("closed mining did not finish")
	}
	// Paper: 4,315 closed patterns at σ=0.03. Calibrated band: low thousands.
	if n := len(res.Patterns); n < 1000 || n > 10000 {
		t.Errorf("closed set has %d patterns; calibration targets the low thousands (paper: 4,315)", n)
	}
	// The three size-44 paths must be closed patterns, and nothing larger
	// may exist.
	bySize := make(map[int]int)
	pathKeys := map[string]bool{}
	for _, p := range paths {
		pathKeys[p.Key()] = true
	}
	foundPaths := 0
	for _, p := range res.Patterns {
		bySize[len(p.Items)]++
		if len(p.Items) > ReplaceColossalSize {
			t.Fatalf("pattern larger than the planted colossal size: %v", p.Items)
		}
		if pathKeys[p.Items.Key()] {
			foundPaths++
		}
	}
	if bySize[ReplaceColossalSize] != 3 {
		t.Errorf("%d closed patterns of size 44, want exactly 3", bySize[ReplaceColossalSize])
	}
	if foundPaths != 3 {
		t.Errorf("only %d of the 3 planted paths are closed patterns", foundPaths)
	}
	// Figure 8 needs a population of large-but-not-colossal closed patterns.
	ge42 := 0
	for s, n := range bySize {
		if s >= 42 {
			ge42 += n
		}
	}
	if ge42 < 30 || ge42 > 300 {
		t.Errorf("%d closed patterns of size ≥ 42; calibration targets ~90 (paper: 98)", ge42)
	}
}

func TestMicroarrayColossalCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the microarray colossal set")
	}
	d, _ := Microarray(1)
	res := minertest.Mine(t, context.Background(), carpenter.Name, d, engine.Options{MinCount: 30, MinSize: 70})
	if res.Stopped {
		t.Fatal("row enumeration did not finish")
	}
	// Paper: ~22 colossal closed patterns of sizes 71–110 at σ count 30.
	if n := len(res.Patterns); n < 10 || n > 60 {
		t.Errorf("%d colossal closed patterns; calibration targets ~20 (paper: 22)", n)
	}
	maxSize, over85 := 0, 0
	for _, p := range res.Patterns {
		if len(p.Items) > maxSize {
			maxSize = len(p.Items)
		}
		if len(p.Items) > 85 {
			over85++
		}
	}
	if maxSize < 100 {
		t.Errorf("largest colossal pattern has size %d; calibration targets ≥ 100 (paper: 110)", maxSize)
	}
	if over85 < 3 {
		t.Errorf("only %d patterns above size 85; the Figure 9 'largest always found' check needs several", over85)
	}
	// Supports must honour the σ = 30 threshold.
	for _, p := range res.Patterns {
		if p.Support() < 30 {
			t.Fatalf("pattern %d-items with support %d below 30", len(p.Items), p.Support())
		}
	}
}

func TestMicroarrayLowSupportExplosion(t *testing.T) {
	if testing.Short() {
		t.Skip("mines at two support levels")
	}
	// Figure 10's premise: frequency explodes as σ drops below the noise
	// support band. Compare closed row-enumeration node counts at minSize 0.
	d, _ := Microarray(1)
	hi := minertest.Mine(t, context.Background(), carpenter.Name, d, engine.Options{MinCount: 34, MinSize: 40})
	lo := minertest.Mine(t, context.Background(), carpenter.Name, d, engine.Options{MinCount: 30, MinSize: 40})
	if lo.Visited <= hi.Visited {
		t.Errorf("no growth in search effort: visited %d at σ=34 vs %d at σ=30", hi.Visited, lo.Visited)
	}
}
