package quality_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
	"repro/internal/quality"
)

// TestReplaceDeltaGolden golden-pins the paper's quality evaluation on
// the Replace fixture: Δ of the deterministic Pattern-Fusion result
// against the three planted size-44 colossal patterns (and the reverse
// direction), plus exact recall. Pattern-Fusion on Replace recovers all
// three planted patterns exactly, so the forward Δ is exactly zero; the
// reverse Δ — how well the three planted patterns alone summarize the
// full 100-pattern result — is a non-trivial value that freezes both
// the miner's output on this fixture and the Delta/Evaluate assignment
// rule for the future ninth-miner PR.
func TestReplaceDeltaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Replace mine is slow")
	}
	d, planted := datagen.Replace(1)
	res := minertest.Mine(t, context.Background(), core.Name, d,
		engine.Options{K: 100, MinSupport: 0.03, Seed: 1, Parallelism: 1})
	p := dataset.Itemsets(res.Patterns)

	rec := quality.ExactRecall(p, planted)
	if rec.Found != len(planted) {
		t.Fatalf("exact recall = %d/%d, want all planted patterns recovered", rec.Found, len(planted))
	}

	const goldenDelta = "0.000000000000"
	if got := fmt.Sprintf("%.12f", quality.Delta(p, planted)); got != goldenDelta {
		t.Errorf("Delta(fusion, planted) = %s, want %s", got, goldenDelta)
	}
	const goldenReverse = "0.386363636364"
	if got := fmt.Sprintf("%.12f", quality.Delta(planted, p)); got != goldenReverse {
		t.Errorf("Delta(planted, fusion) = %s, want %s", got, goldenReverse)
	}
}
