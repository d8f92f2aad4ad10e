package quality

import (
	"math"
	"testing"

	"repro/internal/itemset"
)

// TestExample1ApproximationError reproduces Example 1 / Figure 5 of the
// paper. With a=0, b=1, c=2, d=3, e=4, f=5, x=10, y=11, z=12:
// Q = {abcdf, acde, abcd, abcde, xy, xyz, yz}, P = {abcde, xyz}.
// r1 = Edit(Q1,P1)/|P1| = 2/5, r2 = 1/3, Δ = (2/5+1/3)/2 = 11/30 ≈ 0.3667.
func TestExample1ApproximationError(t *testing.T) {
	q := []itemset.Itemset{
		{0, 1, 2, 3, 5}, // Q1 = abcdf
		{0, 2, 3, 4},    // Q2 = acde
		{0, 1, 2, 3},    // Q3 = abcd
		{0, 1, 2, 3, 4}, // Q4 = abcde (= P1)
		{10, 11},        // Q5 = xy
		{10, 11, 12},    // Q6 = xyz (= P2)
		{11, 12},        // Q7 = yz
	}
	p := []itemset.Itemset{
		{0, 1, 2, 3, 4}, // P1
		{10, 11, 12},    // P2
	}
	ap := Evaluate(p, q)
	if got, want := ap.Delta, 11.0/30.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Δ = %v, want 11/30 = %v", got, want)
	}
	if got := ap.Clusters[0].MaxErr; math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("r1 = %v, want 2/5", got)
	}
	if got := ap.Clusters[1].MaxErr; math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("r2 = %v, want 1/3", got)
	}
	// Q1 (abcdf) is the farthest member of P1's cluster.
	if !ap.Clusters[0].Farthest.Equal(q[0]) {
		t.Fatalf("farthest of cluster 1 = %v, want Q1", ap.Clusters[0].Farthest)
	}
	if len(ap.Clusters[0].Members) != 4 || len(ap.Clusters[1].Members) != 3 {
		t.Fatalf("cluster sizes %d/%d, want 4/3",
			len(ap.Clusters[0].Members), len(ap.Clusters[1].Members))
	}
}

func TestDeltaZeroWhenPEqualsQ(t *testing.T) {
	q := []itemset.Itemset{{1, 2}, {3, 4, 5}, {6}}
	if d := Delta(q, q); d != 0 {
		t.Fatalf("Δ(Q,Q) = %v, want 0", d)
	}
}

func TestDeltaEmptyQ(t *testing.T) {
	if d := Delta([]itemset.Itemset{{1}}, nil); d != 0 {
		t.Fatalf("Δ against empty Q = %v", d)
	}
}

func TestEvaluatePanicsOnEmptyP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate with empty P did not panic")
		}
	}()
	Evaluate(nil, []itemset.Itemset{{1}})
}

func TestTieBreaksTowardLowerIndex(t *testing.T) {
	p := []itemset.Itemset{{1, 2}, {3, 4}}
	q := []itemset.Itemset{{1, 3}} // edit distance 2 to both centers
	ap := Evaluate(p, q)
	if len(ap.Clusters[0].Members) != 1 || len(ap.Clusters[1].Members) != 0 {
		t.Fatal("tie not broken toward lower index")
	}
}

func TestEmptyClusterContributesZero(t *testing.T) {
	p := []itemset.Itemset{{1, 2, 3}, {90, 91, 92}}
	q := []itemset.Itemset{{1, 2, 3}, {1, 2}}
	ap := Evaluate(p, q)
	// Everything clusters to p[0]; p[1]'s cluster is empty with r = 0.
	want := (1.0 / 3.0) / 2.0
	if math.Abs(ap.Delta-want) > 1e-12 {
		t.Fatalf("Δ = %v, want %v", ap.Delta, want)
	}
}

func TestFilterBySize(t *testing.T) {
	q := []itemset.Itemset{{1}, {1, 2}, {1, 2, 3}}
	if got := FilterBySize(q, 2); len(got) != 2 {
		t.Fatalf("FilterBySize(2) kept %d", len(got))
	}
	if got := FilterBySize(q, 4); len(got) != 0 {
		t.Fatalf("FilterBySize(4) kept %d", len(got))
	}
}

func TestExactRecall(t *testing.T) {
	p := []itemset.Itemset{{1, 2}, {3}}
	q := []itemset.Itemset{{1, 2}, {3}, {4}}
	rep := ExactRecall(p, q)
	if rep.Found != 2 || rep.Total != 3 {
		t.Fatalf("recall = %+v", rep)
	}
	if rep.String() != "2/3" {
		t.Fatalf("String = %q", rep.String())
	}
}

// Monotonicity sanity: adding the farthest pattern of Q into P can only
// reduce (or keep) Δ when clusters are well separated.
func TestDeltaImprovesWithBetterP(t *testing.T) {
	q := []itemset.Itemset{{1, 2, 3, 4, 5}, {1, 2, 3, 4}, {50, 51, 52}}
	p1 := []itemset.Itemset{{1, 2, 3, 4, 5}}
	p2 := []itemset.Itemset{{1, 2, 3, 4, 5}, {50, 51, 52}}
	if Delta(p2, q) >= Delta(p1, q) {
		t.Fatalf("Δ did not improve: %v vs %v", Delta(p2, q), Delta(p1, q))
	}
}
