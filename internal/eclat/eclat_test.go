package eclat

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
	"repro/internal/rng"
)

func mine(t *testing.T, d *dataset.Dataset, opts engine.Options) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), Name, d, opts)
}

func TestMineAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(314)
	for trial := 0; trial < 30; trial++ {
		d := datagen.Random(r.Split(), 5+r.Intn(30), 3+r.Intn(8), 0.3+r.Float64()*0.4)
		minCount := 1 + r.Intn(4)
		res := mine(t, d, engine.Options{MinCount: minCount})
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicates", trial)
		}
		want := minertest.BruteForceFrequent(d, minCount)
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d: got %d patterns, want %d", trial, len(got), len(want))
		}
	}
}

func TestTIDSetsExact(t *testing.T) {
	r := rng.New(4)
	d := datagen.Random(r, 30, 7, 0.5)
	for _, p := range mine(t, d, engine.Options{MinCount: 2}).Patterns {
		if !p.TIDs.Equal(d.TIDSet(p.Items)) {
			t.Fatalf("pattern %v carries wrong tidset", p.Items)
		}
	}
}

func TestMaxSize(t *testing.T) {
	r := rng.New(6)
	d := datagen.Random(r, 25, 8, 0.5)
	res := mine(t, d, engine.Options{MinCount: 2, MaxSize: 3})
	for _, p := range res.Patterns {
		if len(p.Items) > 3 {
			t.Fatalf("pattern %v exceeds MaxSize", p.Items)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if got := mine(t, dataset.MustNew(nil), engine.Options{MinCount: 1}).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %d patterns", len(got))
	}
	d := dataset.MustNew([][]int{{7}})
	got := mine(t, d, engine.Options{MinCount: 1}).Patterns
	if len(got) != 1 || got[0].Items.Key() != "7" {
		t.Fatalf("singleton dataset mined %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(18)
	res := minertest.Mine(t, minertest.CancelAfter(2), Name, d, engine.Options{MinCount: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}

// Cross-oracle: Eclat and Apriori must agree — exercised here via brute
// force on both ends; the three-way agreement test lives in the
// experiments package where all miners are imported together.
