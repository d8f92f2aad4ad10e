package maximal

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// mine runs the maximal miner through the engine at the given support
// count.
func mine(t *testing.T, d *dataset.Dataset, minCount int) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), Name, d, engine.Options{MinCount: minCount})
}

func TestMaximalAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 30; trial++ {
		d := datagen.Random(r.Split(), 5+r.Intn(25), 3+r.Intn(8), 0.3+r.Float64()*0.4)
		minCount := 1 + r.Intn(4)
		res := mine(t, d, minCount)
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicate maximal patterns", trial)
		}
		want := minertest.FilterMaximal(minertest.BruteForceFrequent(d, minCount))
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d: got %d maximal, want %d\n got: %v\nwant: %v",
				trial, len(got), len(want), got, want)
		}
	}
}

func TestAllOutputsAreMaximal(t *testing.T) {
	r := rng.New(778)
	d := datagen.Random(r, 40, 9, 0.45)
	for _, p := range mine(t, d, 3).Patterns {
		if !IsMaximal(d, p.Items, 3) {
			t.Fatalf("miner emitted non-maximal pattern %v", p.Items)
		}
	}
}

func TestDiagMaximalCount(t *testing.T) {
	// Diag_n with minimum support n/2: every itemset α has support n − |α|,
	// so the maximal frequent patterns are exactly the (n/2)-subsets:
	// C(n, n/2) of them.
	for _, n := range []int{4, 6, 8, 10} {
		d := datagen.Diag(n)
		res := mine(t, d, n/2)
		want := binomial(n, n/2)
		if len(res.Patterns) != want {
			t.Fatalf("Diag%d: %d maximal patterns, want C(%d,%d)=%d",
				n, len(res.Patterns), n, n/2, want)
		}
		for _, p := range res.Patterns {
			if len(p.Items) != n/2 {
				t.Fatalf("Diag%d: maximal pattern of size %d", n, len(p.Items))
			}
			if p.Support() != n-n/2 {
				t.Fatalf("Diag%d: support %d, want %d", n, p.Support(), n-n/2)
			}
		}
	}
}

func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

func TestDiagPlusFindsColossal(t *testing.T) {
	// The motivating example (Section 1), scaled down: Diag_12 + 6 rows of a
	// fresh 11-item pattern, σ count = 6. The colossal pattern must appear
	// among the maximal patterns.
	d := datagen.DiagPlus(12, 6, 11)
	res := mine(t, d, 6)
	colossal := itemset.Canonical(datagen.DiagColossal(12, 11))
	found := false
	for _, p := range res.Patterns {
		if p.Items.Equal(colossal) {
			found = true
			if p.Support() != 6 {
				t.Fatalf("colossal support = %d, want 6", p.Support())
			}
		}
	}
	if !found {
		t.Fatal("colossal pattern missing from maximal set")
	}
}

func TestIsMaximal(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {0, 1}, {0, 2}})
	if !IsMaximal(d, itemset.Itemset{0, 1}, 2) {
		t.Error("(0 1) should be maximal at minCount 2")
	}
	if IsMaximal(d, itemset.Itemset{0}, 2) {
		t.Error("(0) is not maximal: (0 1) is frequent")
	}
	if IsMaximal(d, itemset.Itemset{0, 2}, 2) {
		t.Error("(0 2) is infrequent at minCount 2")
	}
}

func TestDegenerate(t *testing.T) {
	if got := mine(t, dataset.MustNew(nil), 1).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %d patterns", len(got))
	}
	d := dataset.MustNew([][]int{{0, 1, 2}})
	got := mine(t, d, 1).Patterns
	if len(got) != 1 || got[0].Items.Key() != "0,1,2" {
		t.Fatalf("single transaction: %v", got)
	}
}

func TestCancellationReturnsPartial(t *testing.T) {
	d := datagen.Diag(24)
	res := minertest.Mine(t, minertest.CancelAfter(50), Name, d, engine.Options{MinCount: 12})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}

func TestVisitedGrowsWithDiagSize(t *testing.T) {
	// The exponential blow-up of Figure 6, observed through node counts.
	v10 := mine(t, datagen.Diag(10), 5).Visited
	v14 := mine(t, datagen.Diag(14), 7).Visited
	if v14 <= v10 {
		t.Fatalf("expected node explosion: Diag10=%d, Diag14=%d", v10, v14)
	}
}

// TestFilterSubsumedCanceled pins the merge's cancellation: the filter
// polls ctx before each candidate, and once ctx is canceled it returns
// the candidates kept so far followed by the rest unfiltered, stopped.
func TestFilterSubsumedCanceled(t *testing.T) {
	d := datagen.Diag(6)
	var cands []*dataset.Pattern
	for _, items := range []itemset.Itemset{{0, 1, 2}, {0, 1}, {3, 4}, {3}} {
		cands = append(cands, dataset.NewPatternCounted(items, nil, 1))
	}
	render := func(ps []*dataset.Pattern) string {
		var s string
		for _, p := range ps {
			s += p.Items.String()
		}
		return s
	}
	for _, c := range []struct {
		ctx     context.Context
		want    string
		stopped bool
	}{
		{context.Background(), "(0 1 2)(3 4)", false},
		{minertest.CancelAfter(2), "(0 1 2)(3 4)(3)", true},
		{minertest.CancelAfter(0), "(0 1 2)(0 1)(3 4)(3)", true},
	} {
		got, stopped := filterSubsumed(c.ctx, d, cands)
		if render(got) != c.want || stopped != c.stopped {
			t.Errorf("filtered to %s (stopped %v), want %s (stopped %v)", render(got), stopped, c.want, c.stopped)
		}
	}
}
