package fpgrowth

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

func toMap(rep *engine.Report) (map[string]int, bool) {
	return minertest.PatternsToMap(rep.Patterns)
}

func TestMineCompleteSmall(t *testing.T) {
	d := dataset.MustNew([][]int{
		{0, 1, 3},
		{1, 2, 4},
		{0, 2, 4},
		{0, 1, 2, 3, 4},
	})
	got, noDup := toMap(mine(t, d, engine.Options{MinCount: 2}))
	if !noDup {
		t.Fatal("duplicate itemsets in FP-growth output")
	}
	want := minertest.BruteForceFrequent(d, 2)
	if !minertest.SameMap(got, want) {
		t.Fatalf("FP-growth != brute force: %d vs %d", len(got), len(want))
	}
}

func TestMineAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		d := datagen.Random(r.Split(), 5+r.Intn(30), 3+r.Intn(8), 0.35+r.Float64()*0.3)
		minCount := 1 + r.Intn(4)
		got, noDup := toMap(mine(t, d, engine.Options{MinCount: minCount}))
		if !noDup {
			t.Fatalf("trial %d: duplicates", trial)
		}
		want := minertest.BruteForceFrequent(d, minCount)
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d: got %d patterns, want %d", trial, len(got), len(want))
		}
	}
}

func TestSinglePathShortCircuit(t *testing.T) {
	// A dataset whose FP-tree is one chain: nested transactions.
	d := dataset.MustNew([][]int{
		{0},
		{0, 1},
		{0, 1, 2},
		{0, 1, 2, 3},
	})
	got, _ := toMap(mine(t, d, engine.Options{MinCount: 1}))
	want := minertest.BruteForceFrequent(d, 1)
	if !minertest.SameMap(got, want) {
		t.Fatalf("single-path mining wrong: %d vs %d", len(got), len(want))
	}
}

func TestMaxSize(t *testing.T) {
	r := rng.New(5)
	d := datagen.Random(r, 25, 8, 0.5)
	res := mine(t, d, engine.Options{MinCount: 2, MaxSize: 2})
	for _, p := range res.Patterns {
		if len(p.Items) > 2 {
			t.Fatalf("itemset %v exceeds MaxSize", p.Items)
		}
	}
	// It must still contain every frequent itemset of size ≤ 2.
	want := 0
	for k, _ := range minertest.BruteForceFrequent(d, 2) {
		if n := len(k); n > 0 {
			// count commas to get size
			size := 1
			for i := 0; i < len(k); i++ {
				if k[i] == ',' {
					size++
				}
			}
			if size <= 2 {
				want++
			}
		}
	}
	if len(res.Patterns) != want {
		t.Fatalf("MaxSize mining found %d, want %d", len(res.Patterns), want)
	}
}

func TestEmptyDataset(t *testing.T) {
	d := dataset.MustNew(nil)
	if got := mine(t, d, engine.Options{MinCount: 1}).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset yielded %d itemsets", len(got))
	}
}

func TestHighThresholdYieldsNothing(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {1, 2}})
	if got := mine(t, d, engine.Options{MinCount: 3}).Patterns; len(got) != 0 {
		t.Fatalf("impossible threshold yielded %v", got)
	}
}

func TestDuplicateTransactions(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {0, 1}, {0, 1}})
	got, _ := toMap(mine(t, d, engine.Options{MinCount: 3}))
	if got["0,1"] != 3 || got["0"] != 3 || got["1"] != 3 || len(got) != 3 {
		t.Fatalf("duplicate transactions mined wrong: %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(18)
	res := minertest.Mine(t, minertest.CancelAfter(3), Name, d, engine.Options{MinCount: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}
