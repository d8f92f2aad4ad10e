package patternfusion_test

// End-to-end integration tests across module boundaries: generate → persist
// → reload → mine with multiple algorithms → evaluate quality. These
// exercise the same paths the examples and CLI tools use.

import (
	"context"
	"path/filepath"
	"testing"

	patternfusion "repro"

	"repro/internal/quality"
)

func TestPipelineGenerateSaveLoadMineEvaluate(t *testing.T) {
	// Generate the motivating-example dataset and persist it.
	db := patternfusion.DiagPlus(16, 8, 12)
	path := filepath.Join(t.TempDir(), "diagplus.dat")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	// Reload and confirm identity.
	loaded, err := patternfusion.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != db.Size() || loaded.NumItems() != db.NumItems() {
		t.Fatalf("round trip changed shape: %v vs %v", loaded.ComputeStats(), db.ComputeStats())
	}

	// The exact closed set is the ground truth at this scale.
	minCount := 8
	closed := mine(t, "closed", loaded, patternfusion.Options{MinCount: minCount}).Patterns
	if len(closed) == 0 {
		t.Fatal("no closed patterns")
	}

	// Pattern-Fusion approximates it.
	res, err := patternfusion.MineWith(context.Background(), "fusion", loaded,
		patternfusion.Options{K: 10, MinCount: minCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("Pattern-Fusion returned nothing")
	}

	// The colossal 12-item pattern must be the largest on both sides.
	if got := closedMaxSize(closed); got != 12 {
		t.Fatalf("largest closed pattern size = %d, want 12", got)
	}
	if got := res.Patterns[0].Size(); got != 12 {
		t.Fatalf("largest fused pattern size = %d, want 12", got)
	}

	// And the quality model must score the approximation sanely.
	delta := patternfusion.Delta(patternfusion.Itemsets(res.Patterns), patternfusion.Itemsets(closed))
	if delta < 0 || delta > 1.5 {
		t.Fatalf("Δ = %v out of plausible range", delta)
	}
}

func closedMaxSize(ps []*patternfusion.Pattern) int {
	max := 0
	for _, p := range ps {
		if p.Size() > max {
			max = p.Size()
		}
	}
	return max
}

func TestAllMinersAgreeOnColossal(t *testing.T) {
	// Every miner that can finish the small motivating example must agree
	// on the colossal pattern.
	db := patternfusion.DiagPlus(12, 6, 10)
	colossal := patternfusion.Canonical([]int{12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	const minCount = 6

	contains := func(ps []*patternfusion.Pattern) bool {
		for _, p := range ps {
			if p.Items.Equal(colossal) {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		name string
		opts patternfusion.Options
	}{
		{"closed", patternfusion.Options{MinCount: minCount}},
		{"closedrows", patternfusion.Options{MinCount: minCount}},
		{"maximal", patternfusion.Options{MinCount: minCount}},
		{"topk", patternfusion.Options{K: 3, MinSize: 10}},
		{"fusion", patternfusion.Options{K: 10, MinCount: minCount}},
	} {
		if !contains(mine(t, c.name, db, c.opts).Patterns) {
			t.Errorf("%s missed the colossal pattern", c.name)
		}
	}
}

func TestQualityModelOrdersMinersSanely(t *testing.T) {
	// The complete closed set approximates itself perfectly; a truncated
	// result approximates it strictly worse once real patterns are dropped.
	db := patternfusion.RandomDB(11, 40, 10, 0.4)
	closed := patternfusion.Itemsets(mine(t, "closed", db, patternfusion.Options{MinCount: 4}).Patterns)
	if len(closed) < 8 {
		t.Skip("random database too sparse for this seed")
	}
	full := quality.Delta(closed, closed)
	if full != 0 {
		t.Fatalf("Δ(Q,Q) = %v", full)
	}
	half := quality.Delta(closed[:len(closed)/2], closed)
	if half <= 0 {
		t.Fatalf("Δ of truncated result = %v, want > 0", half)
	}
}
