package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/datagen"
	"repro/internal/eclat"
	"repro/internal/engine"
	"repro/internal/fpgrowth"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// TestThreeWayOracleAgreement is the repository's central cross-check: the
// three complete miners (Apriori, FP-growth, Eclat) must produce identical
// answer sets on randomized databases.
func TestThreeWayOracleAgreement(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 25; trial++ {
		d := datagen.Random(r.Split(), 10+r.Intn(40), 4+r.Intn(9), 0.25+r.Float64()*0.4)
		minCount := 1 + r.Intn(5)

		complete := func(name string) (map[string]int, bool) {
			rep := minertest.Mine(t, context.Background(), name, d, engine.Options{MinCount: minCount})
			return minertest.PatternsToMap(rep.Patterns)
		}
		a, okA := complete(apriori.Name)
		e, okE := complete(eclat.Name)
		f, okF := complete(fpgrowth.Name)
		if !okA || !okE || !okF {
			t.Fatalf("trial %d: duplicates in a complete miner", trial)
		}
		if !minertest.SameMap(a, e) {
			t.Fatalf("trial %d: Apriori (%d) != Eclat (%d)", trial, len(a), len(e))
		}
		if !minertest.SameMap(a, f) {
			t.Fatalf("trial %d: Apriori (%d) != FP-growth (%d)", trial, len(a), len(f))
		}
	}
}

// cell returns the named column's cell of row i.
func cell(t *testing.T, tab *Table, i int, column string) any {
	t.Helper()
	for j, c := range tab.Columns {
		if c == column {
			return tab.Rows[i][j]
		}
	}
	t.Fatalf("no column %q in %v", column, tab.Columns)
	return nil
}

// fact returns the table's named fact.
func fact(t *testing.T, tab *Table, name string) any {
	t.Helper()
	for _, f := range tab.Facts {
		if f.Name == name {
			return f.Value
		}
	}
	t.Fatalf("no fact %q in %v", name, tab.Facts)
	return nil
}

// TestExperimentList pins the list pfexp runs: every -fig name once, in
// the documented order, each with its own CSV file.
func TestExperimentList(t *testing.T) {
	var names []string
	files := map[string]bool{}
	for _, e := range All {
		names = append(names, e.Name)
		if files[e.CSV] || !strings.HasSuffix(e.CSV, ".csv") {
			t.Errorf("%s: CSV file %q repeated or not a .csv", e.Name, e.CSV)
		}
		files[e.CSV] = true
	}
	if got := strings.Join(names, " "); got != "intro 3 5 6 7 8 9 10 ablation data" {
		t.Errorf("experiments = %s", got)
	}
}

func TestIntroExperiment(t *testing.T) {
	tab, err := Intro(Config{Budget: 300 * time.Millisecond, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, "miner") != "maximal" || cell(t, tab, 1, "miner") != "fusion" {
		t.Fatalf("rows: %v", tab.Rows)
	}
	if !cell(t, tab, 0, "exceeded").(bool) {
		t.Error("exact miner unexpectedly finished the motivating example")
	}
	if got := cell(t, tab, 1, "largest"); got != 39 {
		t.Errorf("Pattern-Fusion's largest pattern has %v items, want the colossal 39", got)
	}
	if took := cell(t, tab, 1, "seconds").(time.Duration); took > 5*time.Second {
		t.Errorf("Pattern-Fusion took %v; expected well under the exact miner's blow-up", took)
	}
}

// TestFig3 pins the Figure 3 table: the (d, τ)-robustness of each
// transaction of the example database, which matches the paper, and the
// core patterns of (abcef), the row the paper's table computes under
// the literal Definition 3.
func TestFig3(t *testing.T) {
	tab, err := Fig3(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		transaction string
		robustness  int
	}{{"(abe) ×100", 2}, {"(bcf) ×100", 2}, {"(acf) ×100", 2}, {"(abcef) ×100", 4}}
	if len(tab.Rows) != len(want) {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	for i, w := range want {
		if got := cell(t, tab, i, "transaction"); got != w.transaction {
			t.Errorf("row %d: transaction %v, want %s", i, got, w.transaction)
		}
		if got := cell(t, tab, i, "robustness"); got != w.robustness {
			t.Errorf("%s: robustness %v, want %d", w.transaction, got, w.robustness)
		}
	}
	if got := cell(t, tab, 3, "core_patterns").(string); len(strings.Split(got, ",")) != 26 {
		t.Errorf("(abcef) has core patterns %s, want 26", got)
	}
}

// TestFig5 pins Example 1: the two clusters' radii and Δ = 11/30.
func TestFig5(t *testing.T) {
	tab, err := Fig5(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := fact(t, tab, "delta").(float64); math.Abs(d-11.0/30) > 1e-12 {
		t.Errorf("Δ = %v, want 11/30", d)
	}
	for i, r := range []float64{0.4, 1.0 / 3} {
		if got := cell(t, tab, i, "r").(float64); math.Abs(got-r) > 1e-12 {
			t.Errorf("cluster %d: r = %v, want %v", i+1, got, r)
		}
	}
}

func TestFig6ShapeSmall(t *testing.T) {
	tab, err := Fig6(Fig6Config{
		Config: Config{Budget: 500 * time.Millisecond, Seed: 1},
		Sizes:  []int{6, 10, 14, 18},
		K:      20,
		Tau:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// The exact miner's cost must explode with n while Pattern-Fusion stays
	// bounded: by n=18 (C(18,9) = 48620 maximal patterns) the exact miner
	// must be far slower than at n=6, or out of budget.
	first, last := cell(t, tab, 0, "maximal_seconds").(time.Duration), cell(t, tab, 3, "maximal_seconds").(time.Duration)
	if !cell(t, tab, 3, "maximal_exceeded").(bool) && last < 10*first {
		t.Errorf("no blow-up: n=6 %v vs n=18 %v", first, last)
	}
	for i := range tab.Rows {
		if ft := cell(t, tab, i, "fusion_seconds").(time.Duration); ft > time.Second {
			t.Errorf("Pattern-Fusion at n=%v took %v; expected bounded", cell(t, tab, i, "n"), ft)
		}
	}
}

// smallFig7 is Figure 7 on Diag20: two K cells against a 120-pattern Q.
func smallFig7(par int) Fig7Config {
	return Fig7Config{Config: Config{Seed: 1, Parallelism: par}, N: 20, MinCount: 10, Ks: []int{10, 60}, SampleSize: 120}
}

func TestFig7ShapeSmall(t *testing.T) {
	tab, err := Fig7(smallFig7(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	delta := func(i int, column string) float64 {
		d := cell(t, tab, i, column).(float64)
		if d < 0 {
			t.Fatalf("negative Δ: %v", tab.Rows[i])
		}
		return d
	}
	// More patterns must not make the approximation dramatically worse:
	// K=60 should beat K=10 for both methods (the Figure 7 downward trend).
	for _, column := range []string{"delta_fusion", "delta_uniform"} {
		if delta(1, column) > delta(0, column) {
			t.Errorf("%s did not improve with K: %v -> %v", column, delta(0, column), delta(1, column))
		}
	}
}

// TestFig7Parallel pins that running the cells on two workers renders
// the same table, as text and as CSV, as running them one at a time.
func TestFig7Parallel(t *testing.T) {
	render := func(par int) string {
		tab, err := Fig7(smallFig7(par))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tab.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if p1, p2 := render(1), render(2); p1 != p2 {
		t.Fatalf("parallelism 2 rendered\n%s\nparallelism 1 rendered\n%s", p2, p1)
	}
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("replace-scale experiment")
	}
	cfg := DefaultFig8Config(Config{Seed: 1})
	cfg.Ks = []int{50}
	cfg.MinSizes = []int{40, 44}
	tab, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fact(t, tab, "colossal_found").(bool) {
		t.Error("the three size-44 colossal patterns were not all found")
	}
	if n := fact(t, tab, "closed_total").(int); n < 500 || n > 20000 {
		t.Errorf("closed set size %d outside the calibrated range", n)
	}
	// Δ must decrease (or stay) as the size filter tightens toward the
	// colossal patterns Pattern-Fusion targets.
	d40, d44 := cell(t, tab, 0, "delta").(float64), cell(t, tab, 1, "delta").(float64)
	if d44 > d40 {
		t.Errorf("Δ increased toward colossal sizes: %v", tab.Rows)
	}
	// The largest patterns are never missed: Δ at size ≥ 44 must be 0.
	if d44 != 0 {
		t.Errorf("Δ at size ≥ 44 = %v, want 0 (colossal patterns found exactly)", d44)
	}
}

func TestFig9SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("microarray-scale experiment")
	}
	tab, err := Fig9(DefaultFig9Config(Config{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	complete, recovered := fact(t, tab, "complete_total").(int), fact(t, tab, "fusion_total").(int)
	if complete < 10 || complete > 60 {
		t.Errorf("complete colossal set has %d patterns, outside the calibrated range", complete)
	}
	if recovered*2 < complete {
		t.Errorf("Pattern-Fusion recovered only %d of %d colossal patterns", recovered, complete)
	}
	if !fact(t, tab, "all_larger_than_85_found").(bool) {
		t.Error("a pattern of size > 85 was missed")
	}
}

func TestFig10ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("microarray-scale experiment")
	}
	cfg := DefaultFig10Config(Config{Budget: time.Second, Seed: 1})
	cfg.MinCounts = []int{31, 25}
	tab, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// At the low-support end the exact maximal miner must be out of budget
	// (the paper's exponential regime).
	t31, t25 := cell(t, tab, 0, "maximal_seconds").(time.Duration), cell(t, tab, 1, "maximal_seconds").(time.Duration)
	if !cell(t, tab, 1, "maximal_exceeded").(bool) && t25 < 5*t31 {
		t.Errorf("no exact-miner blow-up between σ=31 and σ=25: %v vs %v", t31, t25)
	}
}
