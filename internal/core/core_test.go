package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// fig3DB is the Figure 3 database: transactions (abe), (bcf), (acf),
// (abcef), 100 duplicates each, with a=0, b=1, c=2, e=3, f=4.
func fig3DB(t *testing.T) *dataset.Dataset {
	t.Helper()
	var txns [][]int
	for _, row := range [][]int{{0, 1, 3}, {1, 2, 4}, {0, 2, 4}, {0, 1, 2, 3, 4}} {
		for i := 0; i < 100; i++ {
			txns = append(txns, row)
		}
	}
	return dataset.MustNew(txns)
}

func TestRadius(t *testing.T) {
	cases := []struct {
		tau, want float64
	}{
		{1.0, 0.0},
		{0.5, 2.0 / 3.0}, // r(0.5) = 1 − 1/(4−1) ... = 1 − 1/3
		{2.0 / 3.0, 0.5},
	}
	for _, c := range cases {
		if got := Radius(c.tau); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Radius(%v) = %v, want %v", c.tau, got, c.want)
		}
	}
}

func TestRadiusPanicsOutOfDomain(t *testing.T) {
	for _, tau := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Radius(%v) did not panic", tau)
				}
			}()
			Radius(tau)
		}()
	}
}

// TestFigure3CorePatterns reproduces the α4 = (abcef) row of Figure 3: its
// τ=0.5 core patterns are the 26 subsets listed in the paper — all
// non-empty subsets except the singletons a, b, c, f and the pair (cf),
// whose supports (300) exceed 2·|D_abcef| = 200.
//
// (The α1–α3 rows of the paper's table were computed with |D_αi| taken as
// the 100 duplicates of the transaction rather than the pattern's true
// support; under the literal Definition 3, e.g., (a) with support 300 is
// also a 0.5-core of (abe) since 200/300 ≥ 0.5. α4's row is exact either
// way, so the test pins that one.)
func TestFigure3CorePatterns(t *testing.T) {
	d := fig3DB(t)
	alpha4 := itemset.Itemset{0, 1, 2, 3, 4}
	cores := CorePatterns(d, alpha4, 0.5)
	if len(cores) != 26 {
		t.Fatalf("|C_abcef| = %d, want 26", len(cores))
	}
	excluded := []itemset.Itemset{{0}, {1}, {2}, {4}, {2, 4}} // a, b, c, f, cf
	coreKeys := make(map[string]bool)
	for _, c := range cores {
		coreKeys[c.Key()] = true
	}
	for _, e := range excluded {
		if coreKeys[e.Key()] {
			t.Errorf("%v should not be a 0.5-core of abcef (support 300)", e)
		}
	}
	for _, inc := range []itemset.Itemset{{3}, {0, 1}, {2, 3}, {3, 4}, {0, 1, 2, 3, 4}} {
		if !coreKeys[inc.Key()] {
			t.Errorf("%v should be a 0.5-core of abcef", inc)
		}
	}
}

// TestFigure3Robustness pins the paper's robustness claims: α1 = (abe) is
// (2, 0.5)-robust and α4 = (abcef) is (4, 0.5)-robust.
func TestFigure3Robustness(t *testing.T) {
	d := fig3DB(t)
	if got := Robustness(d, itemset.Itemset{0, 1, 3}, 0.5); got != 2 {
		t.Errorf("robustness of (abe) = %d, want 2", got)
	}
	if got := Robustness(d, itemset.Itemset{0, 1, 2, 3, 4}, 0.5); got != 4 {
		t.Errorf("robustness of (abcef) = %d, want 4", got)
	}
}

// TestLemma3CoreCountBound checks |C_α| ≥ 2^d for a (d,τ)-robust α.
func TestLemma3CoreCountBound(t *testing.T) {
	d := fig3DB(t)
	alpha := itemset.Itemset{0, 1, 2, 3, 4}
	rob := Robustness(d, alpha, 0.5)
	cores := CorePatterns(d, alpha, 0.5)
	if len(cores) < 1<<uint(rob) {
		t.Fatalf("Lemma 3 violated: |C_α| = %d < 2^%d", len(cores), rob)
	}
}

// TestObservation1DrawProbability pins the Observation 1 number: of the 10
// patterns of size 2 over {a,b,c,e,f}, 9 are core descendants of (abcef).
func TestObservation1DrawProbability(t *testing.T) {
	d := fig3DB(t)
	alpha := itemset.Itemset{0, 1, 2, 3, 4}
	coreKeys := make(map[string]bool)
	for _, c := range CorePatterns(d, alpha, 0.5) {
		coreKeys[c.Key()] = true
	}
	items := []int{0, 1, 2, 3, 4}
	total, hits := 0, 0
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			total++
			if coreKeys[itemset.Itemset{items[i], items[j]}.Key()] {
				hits++
			}
		}
	}
	if total != 10 || hits != 9 {
		t.Fatalf("size-2 core descendants: %d/%d, want 9/10", hits, total)
	}
}

// TestLemma2UnionStaysCore property-checks Lemma 2: for β ∈ C_α and any
// γ ⊆ α, β ∪ γ ∈ C_α.
func TestLemma2UnionStaysCore(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		d := datagen.Random(r.Split(), 20, 8, 0.5)
		// Pick a random frequent-ish pattern as α.
		var alpha itemset.Itemset
		for item := 0; item < 8; item++ {
			if r.Float64() < 0.5 {
				alpha = append(alpha, item)
			}
		}
		if len(alpha) < 2 || d.SupportCount(alpha) == 0 {
			continue
		}
		tau := 0.3 + r.Float64()*0.6
		cores := CorePatterns(d, alpha, tau)
		for _, beta := range cores {
			// γ: random subset of α.
			var gamma itemset.Itemset
			for _, it := range alpha {
				if r.Float64() < 0.5 {
					gamma = append(gamma, it)
				}
			}
			if !IsCore(d, beta.Union(gamma), alpha, tau) {
				t.Fatalf("Lemma 2 violated: β=%v γ=%v α=%v τ=%v", beta, gamma, alpha, tau)
			}
		}
	}
}

// TestTheorem2BallBound property-checks Theorem 2: any two τ-core patterns
// of a common α lie within pattern distance r(τ).
func TestTheorem2BallBound(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 20; trial++ {
		d := datagen.Random(r.Split(), 25, 7, 0.55)
		var alpha itemset.Itemset
		for item := 0; item < 7; item++ {
			if r.Float64() < 0.6 {
				alpha = append(alpha, item)
			}
		}
		if len(alpha) < 2 || d.SupportCount(alpha) == 0 {
			continue
		}
		tau := 0.4 + r.Float64()*0.5
		rad := Radius(tau)
		cores := CorePatterns(d, alpha, tau)
		for i := 0; i < len(cores); i++ {
			ti := d.TIDSet(cores[i])
			for j := i + 1; j < len(cores); j++ {
				tj := d.TIDSet(cores[j])
				if dist := ti.Distance(tj); dist > rad+1e-9 {
					t.Fatalf("Theorem 2 violated: Dist(%v,%v)=%v > r(%v)=%v (α=%v)",
						cores[i], cores[j], dist, tau, rad, alpha)
				}
			}
		}
	}
}

func TestComplementarySetsLemma4(t *testing.T) {
	// Figure 3 text: {(ab),(ae)} is a complementary set of (abe). Under the
	// literal Definition 3 C_abe also holds more; Lemma 4 demands
	// |Γ_α| ≥ 2^(d−1) − 1 for a (d,τ)-robust α.
	d := fig3DB(t)
	alpha := itemset.Itemset{0, 1, 3}
	n := ComplementarySets(d, alpha, 0.5)
	rob := Robustness(d, alpha, 0.5)
	if min := 1<<uint(rob-1) - 1; n < min {
		t.Fatalf("Lemma 4 violated: |Γ| = %d < %d", n, min)
	}
}

func TestIsCoreBasics(t *testing.T) {
	d := fig3DB(t)
	alpha := itemset.Itemset{0, 1, 2, 3, 4}
	if !IsCore(d, itemset.Itemset{3}, alpha, 0.5) {
		t.Error("(e) should be core of abcef")
	}
	if IsCore(d, itemset.Itemset{0}, alpha, 0.5) {
		t.Error("(a) should not be core of abcef")
	}
	if IsCore(d, itemset.Itemset{9}, alpha, 0.5) {
		t.Error("non-subset cannot be core")
	}
}

// mine runs the registered fusion algorithm through the engine.
func mine(t *testing.T, ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Report {
	t.Helper()
	return minertest.Mine(t, ctx, Name, d, opts)
}

// TestConfigValidation pins that out-of-range fusion options are errors
// rather than silent rewrites: only zero selects a default.
func TestConfigValidation(t *testing.T) {
	d := fig3DB(t)
	alg, err := engine.Get(Name)
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range []engine.Options{
		{K: -1},
		{Tau: -0.5},
		{Tau: 1.5},
		{Tau: math.NaN()},
		{MinSupport: 2},
		{MinSupport: math.NaN()},
		{MinCount: -1},
	} {
		if _, err := alg.Mine(context.Background(), d, opts); err == nil {
			t.Errorf("options %d accepted: %+v", i, opts)
		}
	}
}

// TestValidateRejectsNegatives pins that a negative count option is a
// hard error, never silently rewritten to the default.
func TestValidateRejectsNegatives(t *testing.T) {
	d := fig3DB(t)
	alg, err := engine.Get(Name)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*engine.Options){
		func(o *engine.Options) { o.InitPoolMaxSize = -1 },
		func(o *engine.Options) { o.K = -3 },
		func(o *engine.Options) { o.MinCount = -2 },
		func(o *engine.Options) { o.Parallelism = -1 },
	}
	for i, mutate := range mutations {
		opts := engine.Options{K: 5, MinCount: 100}
		mutate(&opts)
		if _, err := alg.Mine(context.Background(), d, opts); err == nil {
			t.Errorf("negative options %d accepted: %+v", i, opts)
		}
	}
}

func TestMineDiagPlusFindsColossal(t *testing.T) {
	// Scaled-down motivating example (Section 1): Diag_12 plus 6 identical
	// rows of an 11-item pattern; σ count = 6. Exhaustive miners face
	// C(12,6) = 924 maximal mid-sized patterns; Pattern-Fusion should leap
	// to the colossal one.
	d := datagen.DiagPlus(12, 6, 11)
	colossal := itemset.Canonical(datagen.DiagColossal(12, 11))
	res := mine(t, context.Background(), d, engine.Options{K: 10, MinCount: 6, InitPoolMaxSize: 2, Seed: 7})
	found := false
	for _, p := range res.Patterns {
		if p.Items.Equal(colossal) {
			found = true
			if p.Support() != 6 {
				t.Fatalf("colossal support %d, want 6", p.Support())
			}
		}
	}
	if !found {
		t.Fatalf("colossal pattern not found; got %v", res.Patterns)
	}
	if len(res.Patterns) > 10 {
		t.Fatalf("result exceeds K: %d > 10", len(res.Patterns))
	}
}

func TestLemma5MinSizeMonotone(t *testing.T) {
	// The minimum pattern size in the pool must not decrease across
	// iterations (Lemma 5).
	d := datagen.DiagPlus(14, 7, 9)
	var minSizes []int
	observe := func(e engine.Event) {
		if e.Phase != engine.PhaseIteration {
			return
		}
		min := 1 << 30
		for _, p := range e.Pool {
			if len(p.Items) < min {
				min = len(p.Items)
			}
		}
		minSizes = append(minSizes, min)
	}
	mine(t, context.Background(), d, engine.Options{K: 8, MinCount: 7, InitPoolMaxSize: 2, Seed: 3, Observer: observe})
	for i := 1; i < len(minSizes); i++ {
		if minSizes[i] < minSizes[i-1] {
			t.Fatalf("Lemma 5 violated: min sizes %v", minSizes)
		}
	}
}

func TestFusedPatternsAreFrequentAndExact(t *testing.T) {
	// Every pattern Pattern-Fusion returns must be frequent and carry its
	// exact support set.
	r := rng.New(11)
	planted := [][]int{{20, 21, 22, 23, 24, 25, 26, 27}}
	d := datagen.RandomWithPlanted(r, 60, 20, 0.25, planted, 0.4)
	res := mine(t, context.Background(), d, engine.Options{K: 15, MinSupport: 0.2, Seed: 5})
	minCount := d.MinCount(0.2)
	for _, p := range res.Patterns {
		if !p.TIDs.Equal(d.TIDSet(p.Items)) {
			t.Fatalf("pattern %v carries wrong tidset", p.Items)
		}
		if p.Support() < minCount {
			t.Fatalf("infrequent pattern %v (support %d < %d)", p.Items, p.Support(), minCount)
		}
	}
}

func TestMineRecoversPlantedColossal(t *testing.T) {
	// A planted 12-item pattern in 40% of transactions over light noise
	// must be recovered (possibly as a superset-closure) by Pattern-Fusion.
	r := rng.New(21)
	planted := itemset.Itemset{30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41}
	d := datagen.RandomWithPlanted(r, 100, 30, 0.1, [][]int{planted}, 0.4)
	res := mine(t, context.Background(), d, engine.Options{K: 10, MinSupport: 0.25, Seed: 9})
	best := 0
	for _, p := range res.Patterns {
		if inter := p.Items.IntersectLen(planted); inter > best {
			best = inter
		}
	}
	if best < len(planted) {
		t.Fatalf("planted colossal only partially recovered: %d/%d items", best, len(planted))
	}
}

func TestMineFromPoolRespectsKAndTermination(t *testing.T) {
	d := fig3DB(t)
	res := mine(t, context.Background(), d, engine.Options{K: 2, MinSupport: 0.1, Seed: 2})
	if len(res.Patterns) > 2 {
		t.Fatalf("K=2 but %d patterns returned", len(res.Patterns))
	}
	if res.Iterations > maxIterations {
		t.Fatalf("iterations %d exceeded cap", res.Iterations)
	}
}

func TestMineEmptyDataset(t *testing.T) {
	d := dataset.MustNew(nil)
	res := mine(t, context.Background(), d, engine.Options{K: 5, MinSupport: 0.5})
	if len(res.Patterns) != 0 {
		t.Fatalf("empty dataset returned %d patterns", len(res.Patterns))
	}
}

func TestMineDeterministicForSeed(t *testing.T) {
	d := datagen.DiagPlus(10, 5, 7)
	run := func() []string {
		res := mine(t, context.Background(), d, engine.Options{K: 5, MinCount: 5, Seed: 123})
		keys := make([]string, len(res.Patterns))
		for i, p := range res.Patterns {
			keys[i] = p.Items.Key()
		}
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic result sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic results: %v vs %v", a, b)
		}
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(30)
	mine(t, minertest.CancelAfter(2), d, engine.Options{K: 5, MinCount: 15})
}

// TestCancellationDuringInitPool pins that a run canceled while phase 1
// is still mining reports Stopped=true even though no fusion step may
// ever observe the cancellation itself.
func TestCancellationDuringInitPool(t *testing.T) {
	d := fig3DB(t)
	res := mine(t, minertest.CancelAfter(1), d, engine.Options{K: 5, MinCount: 100})
	if !res.Stopped {
		t.Fatal("run canceled during phase 1 not reported as Stopped")
	}
}

func TestCorePatternsPanicsOnHugeAlpha(t *testing.T) {
	d := fig3DB(t)
	big := make(itemset.Itemset, 25)
	for i := range big {
		big[i] = i
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CorePatterns on 25-item set did not panic")
		}
	}()
	CorePatterns(d, big, 0.5)
}
