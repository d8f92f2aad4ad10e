// Package experiments defines every experiment of the paper once: the
// Section 1 motivating example, the worked examples of Figures 3 and 5,
// the evaluation's Figures 6–10 (Section 6), the ablations of
// Pattern-Fusion's design choices, and the Section 1 comparison on a
// dataset the caller brings. All lists them in the order cmd/pfexp runs
// them, and the repository's benchmark suite runs the same list. Each
// experiment returns one Table, which pfexp prints as text and writes as
// CSV. Wall-clock comparisons give each exact-miner run a time budget,
// since the exact miners are expected to blow up (that is the paper's
// point). PAPER_MAP.md maps each experiment to the paper's text.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/itemset"
	"repro/internal/maximal"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/topk"
)

// An Experiment is one entry of the paper's evaluation.
type Experiment struct {
	Name  string // pfexp's -fig value
	Title string
	CSV   string // file name of the table's CSV
	Run   func(Config) (*Table, error)
}

// All is every experiment, in the order pfexp -fig all runs them ("data"
// needs Config.Data, so -fig all leaves it out).
var All = []Experiment{
	{"intro", "Section 1 motivating example (Diag40 + colossal pattern)", "intro.csv", Intro},
	{"3", "Figure 3: core patterns of the example database", "fig3.csv", Fig3},
	{"5", "Figure 5 / Example 1: pattern set approximation error", "fig5.csv", Fig5},
	{"6", "Figure 6: run time on Diag_n", "fig6.csv", func(c Config) (*Table, error) { return Fig6(DefaultFig6Config(c)) }},
	{"7", "Figure 7: approximation error on Diag40", "fig7.csv", func(c Config) (*Table, error) { return Fig7(DefaultFig7Config(c)) }},
	{"8", "Figure 8: approximation error on Replace", "fig8.csv", func(c Config) (*Table, error) { return Fig8(DefaultFig8Config(c)) }},
	{"9", "Figure 9: mining result comparison on ALL", "fig9.csv", func(c Config) (*Table, error) { return Fig9(DefaultFig9Config(c)) }},
	{"10", "Figure 10: run time on ALL", "fig10.csv", func(c Config) (*Table, error) { return Fig10(DefaultFig10Config(c)) }},
	{"ablation", "Ablations: design choices on the Replace workload", "ablation.csv", func(c Config) (*Table, error) { return Ablations(DefaultAblationConfig(c)) }},
	{"data", "Bring-your-own-data: exact maximal miner vs Pattern-Fusion", "data.csv", Data},
}

// Config is what every experiment shares.
type Config struct {
	// Budget is the time budget of each exact-miner run in the timed
	// experiments (intro, 6, 10 and data); zero means none.
	Budget time.Duration
	Seed   uint64
	// Parallelism is how many cells of a sweep run at once, and the
	// Parallelism of every fusion run. Cells are seeded independently of
	// execution order, so every table but its timings is identical for
	// any value. Unlike engine.Options, <= 1 means sequential, for
	// per-cell timings free of sibling contention.
	Parallelism int
	// Data is the data experiment's ingested dataset, mined at MinSupport
	// with Pattern-Fusion's K.
	Data       *ingest.Result
	MinSupport float64
	K          int
}

// fusionPar is the Parallelism of the experiment's fusion runs.
func (c Config) fusionPar() int { return max(c.Parallelism, 1) }

// registered returns the miner registered under name; the packages this
// one imports register every name it uses.
func registered(name string) engine.Algorithm {
	alg, err := engine.Get(name)
	if err != nil {
		panic(err)
	}
	return alg
}

// mine runs alg on d under a time budget (zero: none) and reports how
// long it took; a run that exhausts the budget returns a partial report
// with Stopped set, and its time is the budget plus the time it took to
// stop.
func mine(budget time.Duration, alg engine.Algorithm, d *dataset.Dataset, opts engine.Options) (*engine.Report, time.Duration, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	defer cancel()
	t0 := time.Now()
	rep, err := alg.Mine(ctx, d, opts)
	return rep, time.Since(t0), err
}

// cells runs cell(i) for every i in [0, n) on engine.Tasks, parallelism
// at a time. Each cell writes only its own slot; the first error stops
// the cells not yet started and is returned.
func cells(parallelism, n int, cell func(i int) error) error {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	engine.Tasks(ctx, parallelism, n, func(_, i int) {
		if err := cell(i); err != nil {
			cancel(err)
		}
	})
	return context.Cause(ctx)
}

// found counts the itemsets of want present in got.
func found(got []*dataset.Pattern, want []itemset.Itemset) int {
	n := 0
	for _, w := range want {
		for _, p := range got {
			if p.Items.Equal(w) {
				n++
				break
			}
		}
	}
	return n
}

// versus is the Section 1 comparison: the exact maximal miner under
// c.Budget against Pattern-Fusion on d, one row per miner. It also
// returns Pattern-Fusion's report.
func versus(c Config, d *dataset.Dataset, exact, fusion engine.Options) (*Table, *engine.Report, error) {
	t := &Table{Columns: []string{"miner", "seconds", "exceeded", "patterns", "largest"}}
	var rep *engine.Report
	for _, run := range []struct {
		name   string
		budget time.Duration
		opts   engine.Options
	}{{maximal.Name, c.Budget, exact}, {core.Name, 0, fusion}} {
		r, took, err := mine(run.budget, registered(run.name), d, run.opts)
		if err != nil {
			return nil, nil, err
		}
		largest := 0
		if len(r.Patterns) > 0 {
			largest = len(r.Patterns[0].Items)
		}
		t.Rows = append(t.Rows, []any{run.name, took, r.Stopped, len(r.Patterns), largest})
		rep = r
	}
	return t, rep, nil
}

// ---------------------------------------------------------------------------
// Section 1: the motivating example (Diag40 + 20 rows of a fresh 39-item
// pattern; σ count = 20). The exact maximal miner gets trapped in the
// C(40,20) mid-sized patterns while Pattern-Fusion finds the single
// colossal pattern, of 39 items.

// Intro runs the motivating example.
func Intro(c Config) (*Table, error) {
	t, _, err := versus(c, datagen.DiagPlus(40, 20, 39), engine.Options{MinCount: 20},
		engine.Options{K: 20, MinCount: 20, InitPoolMaxSize: 2, Seed: c.Seed, Parallelism: c.fusionPar()})
	return t, err
}

// ---------------------------------------------------------------------------
// Figure 3: the core patterns (Definition 3) and (d, τ)-robustness of the
// example database's transactions at τ = 0.5.

// Fig3 renders the Figure 3 table.
func Fig3(Config) (*Table, error) {
	// The Figure 3 database: (abe), (bcf), (acf), (abcef) ×100 each.
	const names = "abcef"
	rows := [][]int{{0, 1, 3}, {1, 2, 4}, {0, 2, 4}, {0, 1, 2, 3, 4}}
	var txns [][]int
	for _, row := range rows {
		for i := 0; i < 100; i++ {
			txns = append(txns, row)
		}
	}
	d := dataset.MustNew(txns)
	render := func(s itemset.Itemset) string {
		var b strings.Builder
		for _, it := range s {
			b.WriteByte(names[it])
		}
		return "(" + b.String() + ")"
	}
	t := &Table{Columns: []string{"transaction", "robustness", "core_patterns"}, Facts: []Fact{
		{"tau", 0.5},
		{"note", "the paper's table computes |D_αi| for the first three rows as the 100 transaction duplicates; " +
			"under the literal Definition 3 (pattern support) their core sets are larger. The (abcef) row and all robustness values match."},
	}}
	for _, row := range rows {
		alpha := itemset.Canonical(row)
		var cores []string
		for _, c := range core.CorePatterns(d, alpha, 0.5) {
			cores = append(cores, render(c))
		}
		t.Rows = append(t.Rows, []any{render(alpha) + " ×100", core.Robustness(d, alpha, 0.5), strings.Join(cores, ",")})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 5 / Example 1: the approximation A_P^Q of a complete set Q by
// two patterns, one cluster per pattern, and its error Δ.

// Fig5 renders the Figure 5 example.
func Fig5(Config) (*Table, error) {
	q := []itemset.Itemset{
		{0, 1, 2, 3, 5}, {0, 2, 3, 4}, {0, 1, 2, 3}, {0, 1, 2, 3, 4},
		{10, 11}, {10, 11, 12}, {11, 12},
	}
	ap := quality.Evaluate([]itemset.Itemset{{0, 1, 2, 3, 4}, {10, 11, 12}}, q)
	t := &Table{Columns: []string{"cluster", "center", "members", "r", "farthest"},
		Facts: []Fact{{"delta", ap.Delta}, {"paper_delta", 11.0 / 30}}}
	for i, c := range ap.Clusters {
		t.Rows = append(t.Rows, []any{i + 1, c.Center, len(c.Members), c.MaxErr, c.Farthest})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 6: run time on Diag_n, Pattern-Fusion vs the exact maximal miner
// (LCM_maximal stand-in).

// Fig6Config parameterizes the sweep.
type Fig6Config struct {
	Config
	Sizes []int   // matrix sizes n (paper: 5 … 45)
	K     int     // Pattern-Fusion K
	Tau   float64 // core ratio
}

// DefaultFig6Config mirrors the paper's sweep at laptop scale.
func DefaultFig6Config(c Config) Fig6Config {
	return Fig6Config{Config: c, Sizes: []int{5, 10, 15, 20, 22, 24, 26, 28, 30}, K: 40, Tau: 0.5}
}

// Fig6 runs the Diag_n runtime sweep, one cell per n.
func Fig6(cfg Fig6Config) (*Table, error) {
	t := &Table{
		Columns: []string{"n", "maximal_seconds", "maximal_exceeded", "maximal_found", "fusion_seconds", "fusion_patterns"},
		Rows:    make([][]any, len(cfg.Sizes)),
	}
	err := cells(cfg.Parallelism, len(cfg.Sizes), func(i int) error {
		n := cfg.Sizes[i]
		d := datagen.Diag(n)
		minCount := max(n/2, 1)
		mres, mt, err := mine(cfg.Budget, registered(maximal.Name), d, engine.Options{MinCount: minCount})
		if err != nil {
			return err
		}
		fres, ft, err := mine(0, registered(core.Name), d, engine.Options{
			K: cfg.K, MinCount: minCount, Tau: cfg.Tau, InitPoolMaxSize: 2,
			Seed: cfg.Seed, Parallelism: cfg.fusionPar(),
		})
		if err != nil {
			return err
		}
		t.Rows[i] = []any{n, mt, mres.Stopped, len(mres.Patterns), ft, len(fres.Patterns)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 7: approximation error on Diag40 vs number of mined patterns,
// Pattern-Fusion vs uniform sampling from the complete answer set.

// Fig7Config parameterizes the sweep.
type Fig7Config struct {
	Config
	N          int   // Diag size (paper: 40)
	MinCount   int   // support threshold (paper: 20)
	Ks         []int // pattern budget sweep (paper: up to 450)
	SampleSize int   // |Q|: the complete set is too large, so it is sampled
}

// DefaultFig7Config mirrors the paper's setup: Diag40, σ count 20, initial
// pool of the 820 patterns of size ≤ 2, complete set sampled.
func DefaultFig7Config(c Config) Fig7Config {
	return Fig7Config{Config: c, N: 40, MinCount: 20,
		Ks: []int{20, 50, 100, 150, 200, 250, 300, 350, 400, 450}, SampleSize: 500}
}

// Fig7 runs the Diag40 approximation-error sweep, one cell per K. The
// complete set of maximal patterns of Diag40 at σ count 20 is all
// C(40,20) subsets of size 20 — far too many to enumerate, so (as in the
// paper) Q is a uniform sample of it: random 20-subsets of the 40 items.
func Fig7(cfg Fig7Config) (*Table, error) {
	d := datagen.Diag(cfg.N)

	// The evaluation sample Q is shared by all cells and drawn from the
	// root-level stream; each K-cell then derives its own stream keyed by
	// K, so no cell's randomness depends on which other cells run, or in
	// what order.
	qr := rng.Stream(cfg.Seed)
	target := cfg.N - cfg.MinCount // pattern size in the complete set
	q := make([]itemset.Itemset, cfg.SampleSize)
	for i := range q {
		q[i] = itemset.Canonical(qr.SampleInts(cfg.N, target))
	}

	t := &Table{Columns: []string{"k", "delta_fusion", "delta_uniform"}, Rows: make([][]any, len(cfg.Ks))}
	err := cells(cfg.Parallelism, len(cfg.Ks), func(i int) error {
		k := cfg.Ks[i]
		cr := rng.Stream(cfg.Seed, uint64(k))
		res, _, err := mine(0, registered(core.Name), d, engine.Options{
			K: k, MinCount: cfg.MinCount, InitPoolMaxSize: 2,
			Seed: cr.Uint64(), Parallelism: cfg.fusionPar(),
		})
		if err != nil {
			return err
		}
		// The uniform-sampling baseline picks K patterns from the complete
		// answer set (all C(40,20) size-20 subsets), independently of the
		// sample Q it is evaluated against.
		uniform := make([]itemset.Itemset, k)
		for j := range uniform {
			uniform[j] = itemset.Canonical(cr.SampleInts(cfg.N, target))
		}
		t.Rows[i] = []any{k, quality.Delta(dataset.Itemsets(res.Patterns), q), quality.Delta(uniform, q)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 8: approximation error on Replace for K ∈ {50,100,200}, against
// the complete closed set filtered by pattern size ≥ x.

// Fig8Config parameterizes the experiment.
type Fig8Config struct {
	Config
	Sigma    float64 // minimum support (paper: 0.03)
	Ks       []int   // paper: 50, 100, 200
	MinSizes []int   // x sweep (paper: 39 … 45)
}

// DefaultFig8Config mirrors the paper's setup.
func DefaultFig8Config(c Config) Fig8Config {
	return Fig8Config{Config: c, Sigma: 0.03, Ks: []int{50, 100, 200}, MinSizes: []int{38, 39, 40, 41, 42, 43, 44}}
}

// Fig8 runs the Replace approximation-error sweep, one Pattern-Fusion
// cell per K; the table has one row per (size floor, K). Its facts are
// the complete closed set's size (paper: 4,315), the initial pool's
// (paper: 20,948), and whether every run found all three size-44
// colossal patterns, which the paper stresses are never missed.
func Fig8(cfg Fig8Config) (*Table, error) {
	d, paths := datagen.Replace(cfg.Seed)
	closed, _, err := mine(0, registered(charm.Name), d, engine.Options{MinCount: d.MinCount(cfg.Sigma)})
	if err != nil {
		return nil, err
	}
	runs := make([]*engine.Report, len(cfg.Ks))
	err = cells(cfg.Parallelism, len(cfg.Ks), func(i int) error {
		k := cfg.Ks[i]
		rep, _, err := mine(0, registered(core.Name), d, engine.Options{
			K: k, MinSupport: cfg.Sigma, InitPoolMaxSize: 3,
			Seed: cfg.Seed + uint64(k), Parallelism: cfg.fusionPar(),
		})
		runs[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	qAll := dataset.Itemsets(closed.Patterns)
	colossal, pool := true, 0
	for _, run := range runs {
		colossal = colossal && found(run.Patterns, paths) == len(paths)
		pool = run.InitPoolSize
	}
	t := &Table{Columns: []string{"min_size", "q_size", "k", "delta"}, Facts: []Fact{
		{"closed_total", len(qAll)}, {"init_pool", pool}, {"colossal_found", colossal},
	}}
	for _, ms := range cfg.MinSizes {
		qf := quality.FilterBySize(qAll, ms)
		for i, k := range cfg.Ks {
			t.Rows = append(t.Rows, []any{ms, len(qf), k, quality.Delta(dataset.Itemsets(runs[i].Patterns), qf)})
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 9: mining result comparison on the microarray dataset: per
// pattern size, how many of the complete set's colossal patterns
// Pattern-Fusion recovers.

// Fig9Config parameterizes the experiment.
type Fig9Config struct {
	Config
	MinCount int // paper: 30
	MinSize  int // paper: colossal cutoff 70
	K        int // paper: 100
	// LargeCutoff: the paper reports Pattern-Fusion never misses patterns
	// of size > 85.
	LargeCutoff int
}

// DefaultFig9Config mirrors the paper's setup.
func DefaultFig9Config(c Config) Fig9Config {
	return Fig9Config{Config: c, MinCount: 30, MinSize: 70, K: 100, LargeCutoff: 85}
}

// Fig9 runs the microarray comparison: one row per pattern size, largest
// first. Its facts are the totals and whether every complete pattern
// larger than LargeCutoff was recovered.
func Fig9(cfg Fig9Config) (*Table, error) {
	d, _ := datagen.Microarray(cfg.Seed)
	complete, _, err := mine(0, registered(carpenter.Name), d, engine.Options{MinCount: cfg.MinCount, MinSize: cfg.MinSize})
	if err != nil {
		return nil, err
	}
	fres, _, err := mine(0, registered(core.Name), d, engine.Options{
		K: cfg.K, MinCount: cfg.MinCount, InitPoolMaxSize: 2, Seed: cfg.Seed, Parallelism: cfg.fusionPar(),
	})
	if err != nil {
		return nil, err
	}
	hit := make(map[string]bool)
	for _, p := range fres.Patterns {
		hit[p.Items.Key()] = true
	}
	bySize := make(map[int][2]int) // size → (complete, recovered)
	recovered, largeHit := 0, true
	for _, p := range complete.Patterns {
		size := len(p.Items)
		c := bySize[size]
		c[0]++
		if hit[p.Items.Key()] {
			c[1]++
			recovered++
		} else if size > cfg.LargeCutoff {
			largeHit = false
		}
		bySize[size] = c
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	t := &Table{Columns: []string{"pattern_size", "complete", "fusion"}, Facts: []Fact{
		{"complete_total", len(complete.Patterns)}, {"fusion_total", recovered},
		{fmt.Sprintf("all_larger_than_%d_found", cfg.LargeCutoff), largeHit},
	}}
	for _, s := range sizes {
		t.Rows = append(t.Rows, []any{s, bySize[s][0], bySize[s][1]})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 10: run time on the microarray dataset with decreasing minimum
// support: LCM_maximal and TFP blow up, Pattern-Fusion levels off.

// Fig10Config parameterizes the sweep.
type Fig10Config struct {
	Config
	MinCounts []int // paper: 31 down to 21
	K         int   // Pattern-Fusion K
	// TopKK is the k given to the TFP stand-in. The paper parameterizes
	// TFP by the support threshold, i.e. it must enumerate the closed
	// lattice down to σ; a large k with the floor set to σ reproduces
	// that workload.
	TopKK    int
	TopKMinL int // TFP min pattern length
}

// DefaultFig10Config mirrors the paper's sweep.
func DefaultFig10Config(c Config) Fig10Config {
	return Fig10Config{Config: c, MinCounts: []int{31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21},
		K: 100, TopKK: 5000, TopKMinL: 5}
}

// Fig10 runs the microarray runtime sweep, one cell per support count.
func Fig10(cfg Fig10Config) (*Table, error) {
	d, _ := datagen.Microarray(cfg.Seed)
	t := &Table{
		Columns: []string{"min_count", "maximal_seconds", "maximal_exceeded", "topk_seconds", "topk_exceeded", "fusion_seconds"},
		Rows:    make([][]any, len(cfg.MinCounts)),
	}
	err := cells(cfg.Parallelism, len(cfg.MinCounts), func(i int) error {
		mc := cfg.MinCounts[i]
		mres, mt, err := mine(cfg.Budget, registered(maximal.Name), d, engine.Options{MinCount: mc})
		if err != nil {
			return err
		}
		// The support threshold is TFP's floor: it must enumerate the
		// closed lattice down to σ.
		tres, tt, err := mine(cfg.Budget, registered(topk.Name), d,
			engine.Options{K: cfg.TopKK, MinSize: cfg.TopKMinL, MinCount: mc})
		if err != nil {
			return err
		}
		_, ft, err := mine(0, registered(core.Name), d, engine.Options{
			K: cfg.K, MinCount: mc, InitPoolMaxSize: 2, Seed: cfg.Seed, Parallelism: cfg.fusionPar(),
		})
		if err != nil {
			return err
		}
		t.Rows[i] = []any{mc, mt, mres.Stopped, tt, tres.Stopped, ft}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// The Section 1 comparison on a dataset the caller brings.

// Data runs the exact maximal miner under c.Budget against
// Pattern-Fusion on c.Data at c.MinSupport. Its facts describe the
// ingestion and list Pattern-Fusion's five largest patterns, in source
// item symbols.
func Data(c Config) (*Table, error) {
	if c.Data == nil {
		return nil, fmt.Errorf("-fig data requires -data <file>")
	}
	d := c.Data.Dataset
	t, fres, err := versus(c, d, engine.Options{MinSupport: c.MinSupport, Parallelism: c.Parallelism},
		engine.Options{MinSupport: c.MinSupport, K: c.K, Seed: c.Seed, Parallelism: c.Parallelism})
	if err != nil {
		return nil, err
	}
	t.Facts = append(t.Facts, Fact{"ingested", fmt.Sprintf("format=%s rows=%d/%d %s",
		c.Data.Format, c.Data.RowsKept, c.Data.RowsRead, d.ComputeStats())})
	for i, p := range ingest.RemapReport(fres, c.Data.Mapping).Patterns[:min(5, len(fres.Patterns))] {
		items := make([]string, len(p.Items))
		for j, it := range p.Items {
			items[j] = c.Data.Symbols.Symbol(it)
		}
		t.Facts = append(t.Facts, Fact{fmt.Sprintf("fusion #%d", i+1),
			fmt.Sprintf("size=%d support=%d %v", len(p.Items), p.Support(), items)})
	}
	return t, nil
}
