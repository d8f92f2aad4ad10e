package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/datagen"
	"repro/internal/eclat"
	"repro/internal/engine"
	"repro/internal/fpgrowth"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// TestThreeWayOracleAgreement is the repository's central cross-check: the
// three complete miners (Apriori, FP-growth, Eclat) must produce identical
// answer sets on randomized databases.
func TestThreeWayOracleAgreement(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 25; trial++ {
		d := datagen.Random(r.Split(), 10+r.Intn(40), 4+r.Intn(9), 0.25+r.Float64()*0.4)
		minCount := 1 + r.Intn(5)

		complete := func(name string) (map[string]int, bool) {
			rep := minertest.Mine(t, context.Background(), name, d, engine.Options{MinCount: minCount})
			return minertest.PatternsToMap(rep.Patterns)
		}
		a, okA := complete(apriori.Name)
		e, okE := complete(eclat.Name)
		f, okF := complete(fpgrowth.Name)
		if !okA || !okE || !okF {
			t.Fatalf("trial %d: duplicates in a complete miner", trial)
		}
		if !minertest.SameMap(a, e) {
			t.Fatalf("trial %d: Apriori (%d) != Eclat (%d)", trial, len(a), len(e))
		}
		if !minertest.SameMap(a, f) {
			t.Fatalf("trial %d: Apriori (%d) != FP-growth (%d)", trial, len(a), len(f))
		}
	}
}

func TestIntroExperiment(t *testing.T) {
	res, err := Intro(300*time.Millisecond, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MaximalTimedOut {
		t.Error("exact miner unexpectedly finished the motivating example")
	}
	if !res.FusionFound {
		t.Error("Pattern-Fusion missed the colossal pattern")
	}
	if res.FusionTime > 5*time.Second {
		t.Errorf("Pattern-Fusion took %v; expected well under the exact miner's blow-up", res.FusionTime)
	}
}

func TestFig6ShapeSmall(t *testing.T) {
	cfg := Fig6Config{
		Sizes:  []int{6, 10, 14, 18},
		K:      20,
		Tau:    0.5,
		Budget: 500 * time.Millisecond,
		Seed:   1,
	}
	rows, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The exact miner's cost must explode with n while Pattern-Fusion stays
	// bounded: by n=18 (C(18,9) = 48620 maximal patterns) the exact miner
	// must be far slower than at n=6, or out of budget.
	last := rows[len(rows)-1]
	if !last.MaximalOut && last.MaximalTime < 10*rows[0].MaximalTime {
		t.Errorf("no blow-up: n=6 %v vs n=18 %v", rows[0].MaximalTime, last.MaximalTime)
	}
	for _, r := range rows {
		if r.FusionTime > time.Second {
			t.Errorf("Pattern-Fusion at n=%d took %v; expected bounded", r.N, r.FusionTime)
		}
	}
}

func TestFig7ShapeSmall(t *testing.T) {
	cfg := Fig7Config{
		N:          20,
		MinCount:   10,
		Ks:         []int{10, 60},
		SampleSize: 120,
		Seed:       1,
	}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FusionDelta < 0 || r.UniformDelta < 0 {
			t.Fatalf("negative Δ: %+v", r)
		}
	}
	// More patterns must not make the approximation dramatically worse:
	// K=60 should beat K=10 for both methods (the Figure 7 downward trend).
	if rows[1].FusionDelta > rows[0].FusionDelta {
		t.Errorf("fusion Δ did not improve with K: %v -> %v", rows[0].FusionDelta, rows[1].FusionDelta)
	}
	if rows[1].UniformDelta > rows[0].UniformDelta {
		t.Errorf("uniform Δ did not improve with K: %v -> %v", rows[0].UniformDelta, rows[1].UniformDelta)
	}
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("replace-scale experiment")
	}
	// A reduced Replace: fewer transactions, same structure.
	cfg := DefaultFig8Config()
	cfg.Ks = []int{50}
	cfg.MinSizes = []int{40, 44}
	cfg.Budget = 2 * time.Minute
	res, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ColossalFound {
		t.Error("the three size-44 colossal patterns were not all found")
	}
	if res.ClosedTotal < 500 || res.ClosedTotal > 20000 {
		t.Errorf("closed set size %d outside the calibrated range", res.ClosedTotal)
	}
	// Δ must decrease (or stay) as the size filter tightens toward the
	// colossal patterns Pattern-Fusion targets.
	if len(res.Rows) == 2 && res.Rows[1].Deltas[50] > res.Rows[0].Deltas[50] {
		t.Errorf("Δ increased toward colossal sizes: %v", res.Rows)
	}
	// The largest patterns are never missed: Δ at size ≥ 44 must be 0.
	if d := res.Rows[len(res.Rows)-1].Deltas[50]; d != 0 {
		t.Errorf("Δ at size ≥ 44 = %v, want 0 (colossal patterns found exactly)", d)
	}
}

func TestFig9SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("microarray-scale experiment")
	}
	res, err := Fig9(DefaultFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompleteAll < 10 || res.CompleteAll > 60 {
		t.Errorf("complete colossal set has %d patterns, outside the calibrated range", res.CompleteAll)
	}
	if res.FusionAll*2 < res.CompleteAll {
		t.Errorf("Pattern-Fusion recovered only %d of %d colossal patterns", res.FusionAll, res.CompleteAll)
	}
	if !res.LargestHit {
		t.Errorf("a pattern of size > %d was missed", res.LargeCutoff)
	}
}

func TestFig10ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("microarray-scale experiment")
	}
	cfg := DefaultFig10Config()
	cfg.MinCounts = []int{31, 25}
	cfg.Budget = time.Second
	rows, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// At the low-support end the exact maximal miner must be out of budget
	// (the paper's exponential regime).
	if !rows[1].MaximalOut && rows[1].MaximalTime < 5*rows[0].MaximalTime {
		t.Errorf("no exact-miner blow-up between σ=31 and σ=25: %v vs %v",
			rows[0].MaximalTime, rows[1].MaximalTime)
	}
}
