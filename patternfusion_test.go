package patternfusion_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	patternfusion "repro"
)

// mine runs the named algorithm through the facade's MineWith, failing
// tb on an error.
func mine(tb testing.TB, name string, db *patternfusion.Dataset, opts patternfusion.Options) *patternfusion.Report {
	tb.Helper()
	rep, err := patternfusion.MineWith(context.Background(), name, db, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db, err := patternfusion.New([][]int{
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{4, 5},
		{4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 5 || db.NumItems() != 6 {
		t.Fatalf("db shape wrong: %v", db.ComputeStats())
	}
	res := mine(t, "fusion", db, patternfusion.Options{K: 2, MinSupport: 0.4}).Patterns
	if len(res) == 0 || len(res) > 2 {
		t.Fatalf("K=2 mining returned %d patterns", len(res))
	}
	if !res[0].Items.Equal(patternfusion.Canonical([]int{3, 2, 1, 0})) {
		t.Fatalf("largest pattern = %v, want (0 1 2 3)", res[0].Items)
	}
}

func TestPublicReadWrite(t *testing.T) {
	db, err := patternfusion.Read(strings.NewReader("1 2 3\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("Size = %d", db.Size())
	}
}

func TestExactMinersAgreeThroughPublicAPI(t *testing.T) {
	db := patternfusion.RandomDB(5, 30, 8, 0.4)
	opts := patternfusion.Options{MinCount: 3}
	ap := mine(t, "apriori", db, opts).Patterns
	ec := mine(t, "eclat", db, opts).Patterns
	fp := mine(t, "fpgrowth", db, opts).Patterns
	if len(ap) != len(ec) || len(ap) != len(fp) {
		t.Fatalf("miner cardinalities differ: apriori=%d eclat=%d fp=%d", len(ap), len(ec), len(fp))
	}
	closed := mine(t, "closed", db, opts).Patterns
	rows := mine(t, "closedrows", db, opts).Patterns
	if len(closed) != len(rows) {
		t.Fatalf("closed miners differ: charm=%d carpenter=%d", len(closed), len(rows))
	}
	for _, p := range closed {
		if !patternfusion.IsClosed(db, p.Items) {
			t.Fatalf("%v not closed", p.Items)
		}
	}
	for _, p := range mine(t, "maximal", db, opts).Patterns {
		if !patternfusion.IsMaximal(db, p.Items, 3) {
			t.Fatalf("%v not maximal", p.Items)
		}
	}
}

func TestTopKThroughPublicAPI(t *testing.T) {
	db := patternfusion.RandomDB(6, 40, 8, 0.4)
	top := mine(t, "topk", db, patternfusion.Options{K: 5, MinSize: 2}).Patterns
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("topk returned %d", len(top))
	}
	// The answer is the 5 best-supported closed patterns of ≥ 2 items.
	var want []int
	for _, p := range mine(t, "closed", db, patternfusion.Options{MinCount: 1, MinSize: 2}).Patterns {
		want = append(want, p.Support())
	}
	var got []int
	for _, p := range top {
		got = append(got, p.Support())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(want)))
	sort.Sort(sort.Reverse(sort.IntSlice(got)))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("topk supports %v, want the top of %v", got, want)
		}
	}
}

func TestQualityThroughPublicAPI(t *testing.T) {
	q := []patternfusion.Itemset{{0, 1, 2, 3, 4}, {10, 11, 12}}
	if d := patternfusion.Delta(q, q); d != 0 {
		t.Fatalf("Δ(Q,Q) = %v", d)
	}
	if patternfusion.EditDistance(q[0], q[1]) != 8 {
		t.Fatal("edit distance wrong")
	}
	ap := patternfusion.Evaluate(q, q)
	if len(ap.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(ap.Clusters))
	}
}

func TestGeneratorsThroughPublicAPI(t *testing.T) {
	if patternfusion.Diag(10).Size() != 10 {
		t.Fatal("Diag wrong")
	}
	if patternfusion.DiagPlus(10, 5, 8).Size() != 15 {
		t.Fatal("DiagPlus wrong")
	}
	db, paths := patternfusion.ReplaceSim(1)
	if db.Size() != 4395 || len(paths) != 3 {
		t.Fatal("ReplaceSim wrong")
	}
	if patternfusion.MicroarraySim(1).Size() != 38 {
		t.Fatal("MicroarraySim wrong")
	}
}

func TestCoreConceptsThroughPublicAPI(t *testing.T) {
	db, _ := patternfusion.New([][]int{{0, 1}, {0, 1}, {0}})
	alpha := patternfusion.Itemset{0, 1}
	if !patternfusion.IsCore(db, patternfusion.Itemset{1}, alpha, 0.5) {
		t.Fatal("(1) should be a 0.5-core of (0 1)")
	}
	if patternfusion.Robustness(db, alpha, 0.9) < 1 {
		t.Fatal("robustness should allow removing item 1")
	}
	if got := patternfusion.Radius(0.5); got < 0.66 || got > 0.67 {
		t.Fatalf("Radius(0.5) = %v", got)
	}
	if n := len(patternfusion.CorePatterns(db, alpha, 0.5)); n == 0 {
		t.Fatal("no core patterns found")
	}
}

func TestMineFromPoolThroughPublicAPI(t *testing.T) {
	// A warm start: fusion from a caller-supplied pool (here the frequent
	// patterns of at most two items) instead of its own phase 1.
	db := patternfusion.DiagPlus(10, 5, 8)
	var pool [][]int
	for _, p := range mine(t, "apriori", db, patternfusion.Options{MinCount: 5, MaxSize: 2}).Patterns {
		pool = append(pool, p.Items)
	}
	if len(pool) == 0 {
		t.Fatal("empty initial pool")
	}
	res, err := patternfusion.MineWith(context.Background(), "fusion", db,
		patternfusion.Options{K: 5, MinCount: 5, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitPoolSize != len(pool) {
		t.Fatalf("InitPoolSize = %d, want %d", res.InitPoolSize, len(pool))
	}
}
