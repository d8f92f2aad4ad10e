package carpenter

import (
	"context"
	"testing"

	"repro/internal/charm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// mine runs the named closed miner through the engine at the given
// support count and minimum pattern size.
func mine(t *testing.T, name string, d *dataset.Dataset, minCount, minSize int) *engine.Report {
	t.Helper()
	return minertest.Mine(t, context.Background(), name, d, engine.Options{MinCount: minCount, MinSize: minSize})
}

func TestAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(888)
	for trial := 0; trial < 30; trial++ {
		d := datagen.Random(r.Split(), 5+r.Intn(20), 3+r.Intn(8), 0.3+r.Float64()*0.4)
		minCount := 1 + r.Intn(4)
		res := mine(t, Name, d, minCount, 0)
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicate closed patterns from row enumeration", trial)
		}
		want := minertest.FilterClosed(minertest.BruteForceFrequent(d, minCount))
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d: got %d closed, want %d\n got %v\nwant %v",
				trial, len(got), len(want), got, want)
		}
	}
}

func TestAgreesWithCharm(t *testing.T) {
	// The row-enumeration miner and the item-enumeration miner must produce
	// identical closed sets — two very different traversals of the same
	// lattice.
	r := rng.New(889)
	for trial := 0; trial < 15; trial++ {
		d := datagen.Random(r.Split(), 8+r.Intn(20), 4+r.Intn(10), 0.35+r.Float64()*0.3)
		minCount := 2 + r.Intn(3)
		a, _ := minertest.PatternsToMap(mine(t, Name, d, minCount, 0).Patterns)
		b, _ := minertest.PatternsToMap(mine(t, charm.Name, d, minCount, 0).Patterns)
		if !minertest.SameMap(a, b) {
			t.Fatalf("trial %d: carpenter %d vs charm %d closed patterns", trial, len(a), len(b))
		}
	}
}

func TestMinSizePruning(t *testing.T) {
	r := rng.New(890)
	d := datagen.Random(r, 25, 10, 0.5)
	full := mine(t, Name, d, 2, 0)
	pruned := mine(t, Name, d, 2, 3)
	want := 0
	for _, p := range full.Patterns {
		if len(p.Items) >= 3 {
			want++
		}
	}
	if len(pruned.Patterns) != want {
		t.Fatalf("MinSize: got %d, want %d", len(pruned.Patterns), want)
	}
	if pruned.Visited >= full.Visited {
		t.Logf("note: MinSize pruning visited %d vs %d nodes", pruned.Visited, full.Visited)
	}
}

func TestSupportSetsExact(t *testing.T) {
	r := rng.New(891)
	d := datagen.Random(r, 20, 8, 0.5)
	for _, p := range mine(t, Name, d, 2, 0).Patterns {
		if !p.TIDs.Equal(d.TIDSet(p.Items)) {
			t.Fatalf("pattern %v carries wrong tidset", p.Items)
		}
	}
}

func TestLongDataShape(t *testing.T) {
	// Few rows, many columns — carpenter's home turf. 8 rows over 200 items
	// with two planted blocks.
	r := rng.New(892)
	blockA := make([]int, 50)
	blockB := make([]int, 40)
	for i := range blockA {
		blockA[i] = i
	}
	for i := range blockB {
		blockB[i] = 100 + i
	}
	txns := make([][]int, 8)
	for i := range txns {
		var t []int
		if i < 6 {
			t = append(t, blockA...)
		}
		if i >= 2 {
			t = append(t, blockB...)
		}
		t = append(t, 190+r.Intn(10))
		txns[i] = t
	}
	d := dataset.MustNew(txns)
	res := mine(t, Name, d, 4, 30)
	// Expected closed patterns of size ≥ 30 with support ≥ 4: blockA
	// (rows 0-5), blockB (rows 2-7), blockA∪blockB (rows 2-5) and nothing
	// else.
	keys := make(map[string]int)
	for _, p := range res.Patterns {
		keys[p.Items.Key()] = p.Support()
	}
	if len(keys) != 3 {
		t.Fatalf("got %d closed patterns of size ≥ 30, want 3: %v", len(keys), keys)
	}
}

func TestDegenerate(t *testing.T) {
	if got := mine(t, Name, dataset.MustNew(nil), 1, 0).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %d patterns", len(got))
	}
	d := dataset.MustNew([][]int{{0}, {1}})
	if got := mine(t, Name, d, 3, 0).Patterns; len(got) != 0 {
		t.Fatalf("minCount above |D|: %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(18)
	res := minertest.Mine(t, minertest.CancelAfter(5), Name, d, engine.Options{MinCount: 2})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}
