package charm

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

// mine runs the closed miner through the engine at the given support
// count and minimum pattern size.
func mine(t *testing.T, d *dataset.Dataset, minCount, minSize int) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), Name, d, engine.Options{MinCount: minCount, MinSize: minSize})
}

func TestClosedAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(555)
	for trial := 0; trial < 30; trial++ {
		d := datagen.Random(r.Split(), 5+r.Intn(25), 3+r.Intn(8), 0.3+r.Float64()*0.4)
		minCount := 1 + r.Intn(4)
		res := mine(t, d, minCount, 0)
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicate closed patterns", trial)
		}
		want := minertest.FilterClosed(minertest.BruteForceFrequent(d, minCount))
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d: got %d closed, want %d", trial, len(got), len(want))
		}
	}
}

func TestAllOutputsAreClosed(t *testing.T) {
	r := rng.New(556)
	d := datagen.Random(r, 40, 9, 0.45)
	for _, p := range mine(t, d, 2, 0).Patterns {
		if !IsClosed(d, p.Items) {
			t.Fatalf("miner emitted non-closed pattern %v", p.Items)
		}
	}
}

func TestPaperExampleClosures(t *testing.T) {
	// Figure 3 database: a=0, b=1, c=2, e=3, f=4.
	var txns [][]int
	for _, row := range [][]int{{0, 1, 3}, {1, 2, 4}, {0, 2, 4}, {0, 1, 2, 3, 4}} {
		for i := 0; i < 100; i++ {
			txns = append(txns, row)
		}
	}
	d := dataset.MustNew(txns)
	res := mine(t, d, 1, 0)
	got, _ := minertest.PatternsToMap(res.Patterns)
	// The closed sets are the four transactions plus the closures of the
	// single items: closure(a)=(a):300, closure(b)=(b):300,
	// closure(c)=closure(f)=(cf):300 (c and f co-occur in bcf, acf, abcef),
	// closure(e)=(abe):200, and e.g. (ab) is NOT closed because D_ab =
	// D_abe = {abe, abcef}.
	want := map[string]int{
		"0":         300, // a
		"1":         300, // b
		"2,4":       300, // cf
		"0,1,3":     200, // abe
		"1,2,4":     200, // bcf
		"0,2,4":     200, // acf
		"0,1,2,3,4": 100, // abcef
	}
	if !minertest.SameMap(got, want) {
		t.Fatalf("closed sets of Figure 3 DB:\n got %v\nwant %v", got, want)
	}
}

func TestMinSizeFilter(t *testing.T) {
	r := rng.New(557)
	d := datagen.Random(r, 30, 8, 0.5)
	all := mine(t, d, 2, 0)
	filtered := mine(t, d, 2, 3)
	want := 0
	for _, p := range all.Patterns {
		if len(p.Items) >= 3 {
			want++
		}
	}
	if len(filtered.Patterns) != want {
		t.Fatalf("MinSize filter: got %d, want %d", len(filtered.Patterns), want)
	}
	for _, p := range filtered.Patterns {
		if len(p.Items) < 3 {
			t.Fatalf("pattern %v below MinSize", p.Items)
		}
	}
}

func TestIsClosed(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {0, 1}, {0}})
	if !IsClosed(d, itemset.Itemset{0}) {
		t.Error("(0) should be closed (support 3, no equal-support superset)")
	}
	if !IsClosed(d, itemset.Itemset{0, 1}) {
		t.Error("(0 1) should be closed")
	}
	if IsClosed(d, itemset.Itemset{1}) {
		t.Error("(1) is not closed: (0 1) has the same support")
	}
	if IsClosed(d, itemset.Itemset{5}) {
		t.Error("unsupported itemset cannot be closed")
	}
}

func TestDegenerate(t *testing.T) {
	if got := mine(t, dataset.MustNew(nil), 1, 0).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %d patterns", len(got))
	}
	// minCount above |D|: nothing can be frequent.
	d := dataset.MustNew([][]int{{0}, {0}})
	if got := mine(t, d, 3, 0).Patterns; len(got) != 0 {
		t.Fatalf("threshold above |D|: %v", got)
	}
	// Common items across all transactions: closure of ∅ is reported once.
	d2 := dataset.MustNew([][]int{{0, 1}, {0, 1}})
	got := mine(t, d2, 2, 0).Patterns
	if len(got) != 1 || got[0].Items.Key() != "0,1" {
		t.Fatalf("want single closed set (0 1), got %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(20)
	res := minertest.Mine(t, minertest.CancelAfter(10), Name, d, engine.Options{MinCount: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}

func TestVisitedCounter(t *testing.T) {
	d := datagen.Diag(8)
	res := mine(t, d, 4, 0)
	if res.Visited == 0 {
		t.Fatal("Visited not counted")
	}
}
