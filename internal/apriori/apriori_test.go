package apriori

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// mine runs Apriori through the engine at the given support count and
// maximum pattern size (0 = unbounded).
func mine(t *testing.T, d *dataset.Dataset, minCount, maxSize int) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), Name, d, engine.Options{MinCount: minCount, MaxSize: maxSize})
}

func smallDB(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.MustNew([][]int{
		{0, 1, 3},
		{1, 2, 4},
		{0, 2, 4},
		{0, 1, 2, 3, 4},
	})
}

// TestInitialPoolQuestGolden pins fusion's phase-1 pool on sparse
// market-basket data — the itemsets and supports of InitialPool in their
// level order — and checks that most of the pool's TID-sets are sparse, so
// the fixture keeps covering the sparse join kernels.
func TestInitialPoolQuestGolden(t *testing.T) {
	d := datagen.Quest(rng.New(1), datagen.QuestConfig{Txns: 5000, Items: 200})
	pool, stopped := InitialPool(context.Background(), d, d.MinCount(0.01), 3, 2)
	if stopped {
		t.Fatal("uncanceled pool reported stopped")
	}
	h := sha256.New()
	sparse := 0
	for _, p := range pool {
		fmt.Fprintf(h, "%s|%d;", p.Items.Key(), p.Support())
		if !p.TIDs.IsDense() {
			sparse++
		}
	}
	const (
		wantSize = 2207
		wantHash = "677827c808e6945bac6389b4e629f0de08ccb8ed28445fea3dc6390362b49de7"
	)
	if len(pool) != wantSize {
		t.Fatalf("pool size %d, want %d", len(pool), wantSize)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantHash {
		t.Fatalf("pool hash %s, want %s", got, wantHash)
	}
	if 2*sparse < len(pool) {
		t.Fatalf("only %d of %d pool TID-sets are sparse, want at least half", sparse, len(pool))
	}
}

func TestMineCompleteSmall(t *testing.T) {
	d := smallDB(t)
	res := mine(t, d, 2, 0)
	got, noDup := minertest.PatternsToMap(res.Patterns)
	if !noDup {
		t.Fatal("duplicate patterns in Apriori output")
	}
	want := minertest.BruteForceFrequent(d, 2)
	if !minertest.SameMap(got, want) {
		t.Fatalf("Apriori != brute force: %d vs %d patterns", len(got), len(want))
	}
}

func TestMineAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 30; trial++ {
		numTxns := 5 + r.Intn(25)
		numItems := 3 + r.Intn(8)
		d := datagen.Random(r.Split(), numTxns, numItems, 0.4)
		minCount := 1 + r.Intn(4)
		res := mine(t, d, minCount, 0)
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicates", trial)
		}
		want := minertest.BruteForceFrequent(d, minCount)
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d (txns=%d items=%d min=%d): got %d patterns, want %d",
				trial, numTxns, numItems, minCount, len(got), len(want))
		}
	}
}

func TestMineUpToBoundsSize(t *testing.T) {
	d := smallDB(t)
	res := mine(t, d, 1, 2)
	for _, p := range res.Patterns {
		if len(p.Items) > 2 {
			t.Fatalf("pattern %v exceeds MaxSize", p.Items)
		}
	}
	// Every frequent 1- and 2-itemset must be present.
	want := 0
	for k := range minertest.BruteForceFrequent(d, 1) {
		s, _ := itemset.ParseKey(k)
		if len(s) <= 2 {
			want++
		}
	}
	if len(res.Patterns) != want {
		t.Fatalf("MaxSize 2 found %d patterns, want %d", len(res.Patterns), want)
	}
}

func TestInitialPoolSizeDiag40(t *testing.T) {
	// The paper (Section 6): "Pattern-Fusion starts with an initial pool of
	// 820 patterns of size ≤ 2" on Diag40 with support count 20. Indeed:
	// 40 singletons + C(40,2) = 820, all with support ≥ 38 ≥ 20.
	d := datagen.Diag(40)
	res := mine(t, d, 20, 2)
	if len(res.Patterns) != 820 {
		t.Fatalf("Diag40 initial pool = %d patterns, want 820", len(res.Patterns))
	}
}

// TestLevelsAccounting pins the per-level progress stream: one iteration
// event per completed level, each carrying the cumulative pattern count,
// ending at the report's totals.
func TestLevelsAccounting(t *testing.T) {
	d := smallDB(t)
	var pools []int
	rep := minertest.Mine(t, context.Background(), Name, d, engine.Options{
		MinCount: 2,
		Observer: func(e engine.Event) {
			if e.Phase == engine.PhaseIteration {
				pools = append(pools, e.PoolSize)
			}
		},
	})
	if len(pools) != rep.Iterations {
		t.Fatalf("%d level events, want %d", len(pools), rep.Iterations)
	}
	for k := 1; k < len(pools); k++ {
		if pools[k] <= pools[k-1] {
			t.Fatalf("level %d added no patterns: %v", k+1, pools)
		}
	}
	if pools[len(pools)-1] != len(rep.Patterns) {
		t.Fatalf("levels sum %d != %d patterns", pools[len(pools)-1], len(rep.Patterns))
	}
}

func TestDownwardClosure(t *testing.T) {
	r := rng.New(7)
	d := datagen.Random(r, 30, 8, 0.5)
	res := mine(t, d, 3, 0)
	index, _ := minertest.PatternsToMap(res.Patterns)
	for _, p := range res.Patterns {
		for _, drop := range p.Items {
			sub := p.Items.Remove(drop)
			if len(sub) == 0 {
				continue
			}
			if _, ok := index[sub.Key()]; !ok {
				t.Fatalf("downward closure violated: %v frequent but %v missing", p.Items, sub)
			}
		}
	}
}

func TestSupportSetsAreExact(t *testing.T) {
	r := rng.New(8)
	d := datagen.Random(r, 40, 7, 0.45)
	for _, p := range mine(t, d, 2, 0).Patterns {
		if !p.TIDs.Equal(d.TIDSet(p.Items)) {
			t.Fatalf("pattern %v carries wrong tidset", p.Items)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	d := dataset.MustNew(nil)
	if got := mine(t, d, 1, 0).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset yielded %d patterns", len(got))
	}
	d2 := dataset.MustNew([][]int{{}, {}})
	if got := mine(t, d2, 1, 0).Patterns; len(got) != 0 {
		t.Fatalf("all-empty transactions yielded %d patterns", len(got))
	}
	d3 := dataset.MustNew([][]int{{5}})
	got := mine(t, d3, 1, 0).Patterns
	if len(got) != 1 || !got[0].Items.Equal(itemset.Itemset{5}) {
		t.Fatalf("single-item dataset mined %v", got)
	}
}

// TestMinCountBelowOneTreatedAsOne pins the threshold floor: with no
// support threshold set, the engine resolves it to one transaction.
func TestMinCountBelowOneTreatedAsOne(t *testing.T) {
	d := smallDB(t)
	a := mine(t, d, 0, 0)
	b := mine(t, d, 1, 0)
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatal("minCount 0 and 1 differ")
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(20)
	res := minertest.Mine(t, minertest.CancelAfter(1), Name, d, engine.Options{MinCount: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}

// TestInitialPoolMatchesEngine pins fusion's phase-1 entry point to the
// registered miner: the same patterns, in level order rather than the
// engine's largest-first order.
func TestInitialPoolMatchesEngine(t *testing.T) {
	d := datagen.Diag(12)
	pool, stopped := InitialPool(context.Background(), d, 6, 2, 2)
	if stopped {
		t.Fatal("uncanceled pool build reported stopped")
	}
	got, _ := minertest.PatternsToMap(pool)
	want, _ := minertest.PatternsToMap(mine(t, d, 6, 2).Patterns)
	if !minertest.SameMap(got, want) {
		t.Fatalf("InitialPool has %d patterns, engine %d", len(got), len(want))
	}
	for i := 1; i < len(pool); i++ {
		if len(pool[i].Items) < len(pool[i-1].Items) {
			t.Fatalf("pool not in level order at %d", i)
		}
	}
}
