package topk

import (
	"context"
	"sort"
	"testing"

	"repro/internal/charm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// mine runs TFP through the engine for the top k closed patterns of at
// least minLen items.
func mine(t *testing.T, d *dataset.Dataset, k, minLen int) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), Name, d, engine.Options{K: k, MinSize: minLen})
}

// bySupport returns the supports of ps in descending order.
func bySupport(ps []*dataset.Pattern) []int {
	sups := make([]int, len(ps))
	for i, p := range ps {
		sups[i] = p.Support()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sups)))
	return sups
}

// oracleTopK computes the reference answer from the complete closed set:
// supports of the top k closed patterns with ≥ minLen items.
func oracleTopK(t *testing.T, d *dataset.Dataset, k, minLen int) []int {
	var sups []int
	closed := minertest.Mine(t, context.Background(), charm.Name, d, engine.Options{MinCount: 1})
	for _, p := range closed.Patterns {
		if len(p.Items) >= minLen {
			sups = append(sups, p.Support())
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sups)))
	if len(sups) > k {
		sups = sups[:k]
	}
	return sups
}

func TestTopKMatchesOracleRandom(t *testing.T) {
	r := rng.New(909)
	for trial := 0; trial < 20; trial++ {
		d := datagen.Random(r.Split(), 10+r.Intn(25), 4+r.Intn(7), 0.35+r.Float64()*0.3)
		k := 1 + r.Intn(8)
		minLen := 1 + r.Intn(3)
		res := mine(t, d, k, minLen)
		for _, p := range res.Patterns {
			if len(p.Items) < minLen {
				t.Fatalf("trial %d: pattern %v below min length", trial, p.Items)
			}
			if !charm.IsClosed(d, p.Items) {
				t.Fatalf("trial %d: pattern %v not closed", trial, p.Items)
			}
		}
		got := bySupport(res.Patterns)
		want := oracleTopK(t, d, k, minLen)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d patterns, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: support vector %v, want %v", trial, got, want)
			}
		}
	}
}

// TestThresholdRaising pins TFP's dynamic threshold: once k answers are
// in hand the internal support bound rises and prunes, so the top-k
// search visits fewer nodes than the complete closed enumeration it
// replaces.
func TestThresholdRaising(t *testing.T) {
	r := rng.New(910)
	d := datagen.Random(r, 50, 8, 0.4)
	res := mine(t, d, 5, 1)
	if res.Visited == 0 {
		t.Fatal("no nodes visited")
	}
	closed := minertest.Mine(t, context.Background(), charm.Name, d, engine.Options{MinCount: 1})
	if len(closed.Patterns) > 5 && res.Visited >= closed.Visited {
		t.Fatalf("top-5 search visited %d nodes, the complete closed enumeration %d",
			res.Visited, closed.Visited)
	}
}

func TestFewerThanKExist(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {0, 1}})
	res := mine(t, d, 10, 1)
	if len(res.Patterns) != 1 { // only closed set is (0 1)
		t.Fatalf("got %d patterns, want 1", len(res.Patterns))
	}
}

func TestMinLengthExcludesEverything(t *testing.T) {
	d := dataset.MustNew([][]int{{0}, {1}})
	res := mine(t, d, 3, 5)
	if len(res.Patterns) != 0 {
		t.Fatalf("impossible min length yielded %v", res.Patterns)
	}
}

// TestResultsSortedBySupport pins the raw shard order: a shard's top-k
// comes back best first — descending support — so a coordinator can merge
// per-shard answers by the same total order.
func TestResultsSortedBySupport(t *testing.T) {
	r := rng.New(911)
	d := datagen.Random(r, 60, 9, 0.4)
	alg, err := engine.Get(Name)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{K: 10, MinSize: 1}
	plan, err := alg.Plan(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.MineShard(context.Background(), 0, plan.Units, plan.Units)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].Support() > res.Patterns[i-1].Support() {
			t.Fatal("results not sorted by descending support")
		}
	}
}

func TestDegenerate(t *testing.T) {
	if got := mine(t, dataset.MustNew(nil), 3, 1).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(18)
	res := minertest.Mine(t, minertest.CancelAfter(5), Name, d, engine.Options{K: 1000, MinSize: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}
