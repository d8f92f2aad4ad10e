// Package experiments contains one driver per figure/table of the paper's
// evaluation (Section 6), shared by the pfexp command and the repository's
// benchmark suite. Each driver returns typed rows so callers can render or
// assert on them; wall-clock comparisons use per-point time budgets since
// the exact miners are expected to blow up (that is the paper's point).
//
// The experiment identifiers follow DESIGN.md §4: E3 = Figure 6, E4 =
// Figure 7, E5 = Figure 8, E6 = Figure 9, E7 = Figure 10, E8 = the
// introduction's Diag40+20 example.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/maximal"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/topk"
)

// mine runs the registered algorithm name on d through the engine under
// a time budget (zero: none); a run that exhausts it returns a partial
// report with Stopped set.
func mine(budget time.Duration, name string, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	alg, err := engine.Get(name)
	if err != nil {
		return nil, err
	}
	ctx, cancel := budgetContext(budget)
	defer cancel()
	return alg.Mine(ctx, d, opts)
}

// budgetContext returns a Context enforcing a time budget, plus its cancel
// func (which must be called to release the deadline timer). A zero budget
// never cancels.
func budgetContext(budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), budget)
}

// corePar maps an experiment-level Parallelism value to the fusion run's
// engine.Options.Parallelism: at this layer 0 means "sequential" (like 1),
// never "all CPUs", so that default-constructed configs measure
// single-core fusion timings as documented.
func corePar(parallelism int) int {
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// forEachCell runs fn(i) for every cell index in [0, n), fanning the cells
// out to a pool of parallelism workers. Parallelism <= 1 runs the cells
// sequentially on the calling goroutine — the default for every
// experiment config, so that per-cell wall-clock measurements stay free of
// sibling-cell contention unless the caller opts in. Each fn must write
// only its own cell's slot. The first error encountered wins; once an
// error occurs no new cells are started (parallel cells already in flight
// still finish), so a failing sweep aborts instead of burning the
// remaining cells' budgets.
func forEachCell(parallelism, n int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	cells := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		cells <- i
	}
	close(cells)
	wg.Wait()
	return firstErr
}

// ---------------------------------------------------------------------------
// E8: the introduction's motivating example (Diag40 + 20 rows of a fresh
// 39-item pattern; σ count = 20).

// IntroResult reports the motivating example: the exact maximal miner gets
// trapped in the C(40,20) mid-sized patterns while Pattern-Fusion finds the
// single colossal pattern.
type IntroResult struct {
	MaximalTimedOut bool          // the exact miner hit its budget
	MaximalFound    int           // patterns it had found by then
	MaximalTime     time.Duration // how long it ran
	FusionTime      time.Duration
	FusionFound     bool // Pattern-Fusion found α = (40 … 78)
	FusionPatterns  int
}

// Intro runs the motivating example with the given budget for the exact
// miner. Parallelism follows the experiment-layer convention: it is handed
// to the fusion run's Parallelism with <= 1 meaning a sequential fusion run.
func Intro(budget time.Duration, seed uint64, parallelism int) (*IntroResult, error) {
	d := datagen.DiagPlus(40, 20, 39)
	colossal := itemset.Canonical(datagen.DiagColossal(40, 39))
	res := &IntroResult{}

	t0 := time.Now()
	mres, err := mine(budget, maximal.Name, d, engine.Options{MinCount: 20})
	if err != nil {
		return nil, err
	}
	res.MaximalTime = time.Since(t0)
	res.MaximalTimedOut = mres.Stopped
	res.MaximalFound = len(mres.Patterns)

	t0 = time.Now()
	fres, err := mine(0, core.Name, d, engine.Options{
		K: 20, MinCount: 20, InitPoolMaxSize: 2, Seed: seed, Parallelism: corePar(parallelism),
	})
	if err != nil {
		return nil, err
	}
	res.FusionTime = time.Since(t0)
	res.FusionPatterns = len(fres.Patterns)
	for _, p := range fres.Patterns {
		if p.Items.Equal(colossal) {
			res.FusionFound = true
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// E3: Figure 6 — run time on Diag_n, Pattern-Fusion vs the exact maximal
// miner (LCM_maximal stand-in).

// Fig6Row is one point of Figure 6.
type Fig6Row struct {
	N            int
	MaximalTime  time.Duration
	MaximalOut   bool // exceeded budget (the paper's "cannot finish" regime)
	MaximalFound int
	FusionTime   time.Duration
	FusionSizes  int // number of patterns Pattern-Fusion returned
}

// Fig6Config parameterizes the sweep.
type Fig6Config struct {
	Sizes  []int         // matrix sizes n (paper: 5 … 45)
	K      int           // Pattern-Fusion K
	Tau    float64       // core ratio
	Budget time.Duration // per-point budget for the exact miner
	Seed   uint64
	// Parallelism fans the per-n cells out to this many workers and is
	// handed to the fusion run's Parallelism. Cells are seeded independently of
	// execution order, so mined results are identical for any value; <= 1
	// keeps both the cells and the fusion runs sequential for clean
	// per-cell timings (unlike engine.Options, 0 here never means all CPUs).
	Parallelism int
}

// DefaultFig6Config mirrors the paper's sweep, with a laptop-scale budget.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Sizes:  []int{5, 10, 15, 20, 22, 24, 26, 28, 30},
		K:      40,
		Tau:    0.5,
		Budget: 2 * time.Second,
		Seed:   1,
	}
}

// Fig6 runs the Diag_n runtime sweep.
func Fig6(cfg Fig6Config) ([]Fig6Row, error) {
	rows := make([]Fig6Row, len(cfg.Sizes))
	err := forEachCell(cfg.Parallelism, len(cfg.Sizes), func(i int) error {
		n := cfg.Sizes[i]
		d := datagen.Diag(n)
		minCount := n / 2
		if minCount < 1 {
			minCount = 1
		}
		row := Fig6Row{N: n}

		t0 := time.Now()
		mres, err := mine(cfg.Budget, maximal.Name, d, engine.Options{MinCount: minCount})
		if err != nil {
			return err
		}
		row.MaximalTime = time.Since(t0)
		row.MaximalOut = mres.Stopped
		row.MaximalFound = len(mres.Patterns)

		t0 = time.Now()
		fres, err := mine(0, core.Name, d, engine.Options{
			K: cfg.K, MinCount: minCount, Tau: cfg.Tau, InitPoolMaxSize: 2,
			Seed: cfg.Seed, Parallelism: corePar(cfg.Parallelism),
		})
		if err != nil {
			return err
		}
		row.FusionTime = time.Since(t0)
		row.FusionSizes = len(fres.Patterns)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E4: Figure 7 — approximation error on Diag40 vs number of mined patterns,
// Pattern-Fusion vs uniform sampling from the complete answer set.

// Fig7Row is one point of Figure 7.
type Fig7Row struct {
	K            int     // number of mined patterns
	FusionDelta  float64 // Δ(A_P^Q) of Pattern-Fusion's result
	UniformDelta float64 // Δ for K patterns sampled uniformly from Q
}

// Fig7Config parameterizes the sweep.
type Fig7Config struct {
	N          int   // Diag size (paper: 40)
	MinCount   int   // support threshold (paper: 20)
	Ks         []int // pattern budget sweep (paper: up to 450)
	SampleSize int   // |Q|: the complete set is too large, so it is sampled
	Seed       uint64
	// Parallelism fans the per-K cells out to this many workers and is
	// handed to the fusion run's Parallelism (<= 1 = fully sequential, even for
	// the fusion runs). Each cell draws from its own rng.Stream keyed by K,
	// so results are identical for any Parallelism and unaffected by
	// adding or removing other Ks.
	Parallelism int
}

// DefaultFig7Config mirrors the paper's setup: Diag40, σ count 20, initial
// pool of the 820 patterns of size ≤ 2, complete set sampled.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		N:          40,
		MinCount:   20,
		Ks:         []int{20, 50, 100, 150, 200, 250, 300, 350, 400, 450},
		SampleSize: 500,
		Seed:       1,
	}
}

// Fig7 runs the Diag40 approximation-error sweep. The complete set of
// maximal patterns of Diag40 at σ count 20 is all C(40,20) subsets of size
// 20 — far too many to enumerate, so (as in the paper) Q is a uniform
// sample of it: random 20-subsets of the 40 items.
func Fig7(cfg Fig7Config) ([]Fig7Row, error) {
	d := datagen.Diag(cfg.N)

	// The evaluation sample Q is shared by all cells and drawn from the
	// root-level stream; each K-cell then derives its own stream keyed by
	// K, so no cell's randomness depends on which other cells run, or in
	// what order.
	qr := rng.Stream(cfg.Seed)
	target := cfg.N - cfg.MinCount // pattern size in the complete set
	q := make([]itemset.Itemset, cfg.SampleSize)
	for i := range q {
		pick := qr.SampleInts(cfg.N, target)
		q[i] = itemset.Canonical(pick)
	}

	rows := make([]Fig7Row, len(cfg.Ks))
	err := forEachCell(cfg.Parallelism, len(cfg.Ks), func(i int) error {
		k := cfg.Ks[i]
		cr := rng.Stream(cfg.Seed, uint64(k))
		res, err := mine(0, core.Name, d, engine.Options{
			K: k, MinCount: cfg.MinCount, InitPoolMaxSize: 2,
			Seed: cr.Uint64(), Parallelism: corePar(cfg.Parallelism),
		})
		if err != nil {
			return err
		}
		p := dataset.Itemsets(res.Patterns)
		// The uniform-sampling baseline picks K patterns from the complete
		// answer set (all C(40,20) size-20 subsets), independently of the
		// sample Q it is evaluated against.
		uniform := make([]itemset.Itemset, k)
		for j := range uniform {
			uniform[j] = itemset.Canonical(cr.SampleInts(cfg.N, target))
		}
		rows[i] = Fig7Row{
			K:            k,
			FusionDelta:  quality.Delta(p, q),
			UniformDelta: quality.Delta(uniform, q),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E5: Figure 8 — approximation error on Replace for K ∈ {50,100,200},
// against the complete closed set filtered by pattern size ≥ x.

// Fig8Row is one point of Figure 8: Δ when comparing against all complete
// patterns of size ≥ MinSize, for each K.
type Fig8Row struct {
	MinSize int
	Deltas  map[int]float64 // K → Δ
	QSize   int             // |Q_{≥MinSize}|
}

// Fig8Result carries the sweep plus the headline findings.
type Fig8Result struct {
	Rows          []Fig8Row
	ClosedTotal   int  // size of the complete closed set (paper: 4,315)
	ColossalFound bool // all three size-44 patterns present in every run
	InitPool      int  // paper: 20,948
}

// Fig8Config parameterizes the experiment.
type Fig8Config struct {
	Sigma    float64 // minimum support (paper: 0.03)
	Ks       []int   // paper: 50, 100, 200
	MinSizes []int   // x sweep (paper: 39 … 45)
	Seed     uint64
	Budget   time.Duration // budget for the complete closed mining
	// Parallelism fans the per-K Pattern-Fusion cells out to this many
	// workers and is handed to the fusion run's Parallelism (<= 1 = fully
	// sequential). Results are identical for any value.
	Parallelism int
}

// DefaultFig8Config mirrors the paper's setup.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Sigma:    0.03,
		Ks:       []int{50, 100, 200},
		MinSizes: []int{38, 39, 40, 41, 42, 43, 44},
		Seed:     1,
		Budget:   5 * time.Minute,
	}
}

// Fig8 runs the Replace approximation-error sweep.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	d, paths := datagen.Replace(cfg.Seed)
	minCount := d.MinCount(cfg.Sigma)

	closed, err := mine(cfg.Budget, charm.Name, d, engine.Options{MinCount: minCount})
	if err != nil {
		return nil, err
	}
	if closed.Stopped {
		return nil, fmt.Errorf("fig8: complete closed mining exceeded budget with %d patterns", len(closed.Patterns))
	}
	qAll := dataset.Itemsets(closed.Patterns)

	out := &Fig8Result{ClosedTotal: len(qAll), ColossalFound: true}
	// Each K-cell writes only its own slot; the fold below is sequential.
	type cell struct {
		itemsets []itemset.Itemset
		initPool int
	}
	cells := make([]cell, len(cfg.Ks))
	err = forEachCell(cfg.Parallelism, len(cfg.Ks), func(i int) error {
		k := cfg.Ks[i]
		res, err := mine(0, core.Name, d, engine.Options{
			K: k, MinSupport: cfg.Sigma, InitPoolMaxSize: 3,
			Seed: cfg.Seed + uint64(k), Parallelism: corePar(cfg.Parallelism),
		})
		if err != nil {
			return err
		}
		cells[i] = cell{itemsets: dataset.Itemsets(res.Patterns), initPool: res.InitPoolSize}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make(map[int][]itemset.Itemset)
	for i, k := range cfg.Ks {
		out.InitPool = cells[i].initPool
		results[k] = cells[i].itemsets
		// The paper stresses that the three size-44 colossal patterns are
		// never missed, for any K and τ.
		for _, path := range paths {
			found := false
			for _, got := range results[k] {
				if got.Equal(path) {
					found = true
					break
				}
			}
			if !found {
				out.ColossalFound = false
			}
		}
	}
	for _, ms := range cfg.MinSizes {
		qf := quality.FilterBySize(qAll, ms)
		row := Fig8Row{MinSize: ms, Deltas: make(map[int]float64), QSize: len(qf)}
		for _, k := range cfg.Ks {
			row.Deltas[k] = quality.Delta(results[k], qf)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E6: Figure 9 — mining result comparison on the microarray dataset:
// per pattern size, how many of the complete set's colossal patterns
// Pattern-Fusion recovers.

// Fig9Row is one row of the Figure 9 table.
type Fig9Row struct {
	Size     int
	Complete int // patterns of this size in the complete set
	Fusion   int // of those, found (exactly) by Pattern-Fusion
}

// Fig9Result carries the comparison table.
type Fig9Result struct {
	Rows        []Fig9Row
	CompleteAll int  // total complete patterns of size ≥ MinSize
	FusionAll   int  // total of those recovered
	LargestHit  bool // every pattern of size > LargeCutoff recovered
	LargeCutoff int
}

// Fig9Config parameterizes the experiment.
type Fig9Config struct {
	MinCount int // paper: 30
	MinSize  int // paper: colossal cutoff 70
	K        int // paper: 100
	// LargeCutoff: the paper reports Pattern-Fusion never misses patterns
	// of size > 85.
	LargeCutoff int
	Seed        uint64
	// Parallelism is handed to the fusion run's Parallelism (<= 1 = sequential;
	// Figure 9 is a single Pattern-Fusion run, so there are no cells to
	// fan out).
	Parallelism int
}

// DefaultFig9Config mirrors the paper's setup.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{MinCount: 30, MinSize: 70, K: 100, LargeCutoff: 85, Seed: 1}
}

// Fig9 runs the microarray comparison.
func Fig9(cfg Fig9Config) (*Fig9Result, error) {
	d, _ := datagen.Microarray(cfg.Seed)
	complete, err := mine(0, carpenter.Name, d, engine.Options{MinCount: cfg.MinCount, MinSize: cfg.MinSize})
	if err != nil {
		return nil, err
	}
	fres, err := mine(0, core.Name, d, engine.Options{
		K: cfg.K, MinCount: cfg.MinCount, InitPoolMaxSize: 2,
		Seed: cfg.Seed, Parallelism: corePar(cfg.Parallelism),
	})
	if err != nil {
		return nil, err
	}
	found := make(map[string]bool)
	for _, p := range fres.Patterns {
		found[p.Items.Key()] = true
	}

	bySize := make(map[int]*Fig9Row)
	out := &Fig9Result{LargestHit: true, LargeCutoff: cfg.LargeCutoff}
	for _, p := range complete.Patterns {
		size := len(p.Items)
		row, ok := bySize[size]
		if !ok {
			row = &Fig9Row{Size: size}
			bySize[size] = row
		}
		row.Complete++
		out.CompleteAll++
		if found[p.Items.Key()] {
			row.Fusion++
			out.FusionAll++
		} else if size > cfg.LargeCutoff {
			out.LargestHit = false
		}
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for _, s := range sizes {
		out.Rows = append(out.Rows, *bySize[s])
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E7: Figure 10 — run time on the microarray dataset with decreasing
// minimum support: LCM_maximal and TFP blow up, Pattern-Fusion levels off.

// Fig10Row is one point of Figure 10.
type Fig10Row struct {
	MinCount    int
	MaximalTime time.Duration
	MaximalOut  bool
	TopKTime    time.Duration
	TopKOut     bool
	FusionTime  time.Duration
}

// Fig10Config parameterizes the sweep.
type Fig10Config struct {
	MinCounts []int // paper: 31 down to 21
	K         int   // Pattern-Fusion K
	// TopKK is the k given to the TFP stand-in. The paper parameterizes
	// TFP by the support threshold, i.e. it must enumerate the closed
	// lattice down to σ; a large k with the floor set to σ reproduces
	// that workload.
	TopKK    int
	TopKMinL int           // TFP min pattern length
	Budget   time.Duration // per-point budget for the exact miners
	Seed     uint64
	// Parallelism fans the per-support cells out to this many workers and
	// is handed to the fusion run's Parallelism. <= 1 keeps the cells and
	// fusion runs sequential so the runtime curves stay free of sibling
	// contention (unlike engine.Options, 0 here never means all CPUs).
	Parallelism int
}

// DefaultFig10Config mirrors the paper's sweep with laptop budgets.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		MinCounts: []int{31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21},
		K:         100,
		TopKK:     5000,
		TopKMinL:  5,
		Budget:    2 * time.Second,
		Seed:      1,
	}
}

// Fig10 runs the microarray runtime sweep.
func Fig10(cfg Fig10Config) ([]Fig10Row, error) {
	d, _ := datagen.Microarray(cfg.Seed)
	rows := make([]Fig10Row, len(cfg.MinCounts))
	err := forEachCell(cfg.Parallelism, len(cfg.MinCounts), func(i int) error {
		mc := cfg.MinCounts[i]
		row := Fig10Row{MinCount: mc}

		t0 := time.Now()
		mres, err := mine(cfg.Budget, maximal.Name, d, engine.Options{MinCount: mc})
		if err != nil {
			return err
		}
		row.MaximalTime = time.Since(t0)
		row.MaximalOut = mres.Stopped

		// The support threshold is TFP's floor: it must enumerate the closed
		// lattice down to σ.
		t0 = time.Now()
		tres, err := mine(cfg.Budget, topk.Name, d,
			engine.Options{K: cfg.TopKK, MinSize: cfg.TopKMinL, MinCount: mc})
		if err != nil {
			return err
		}
		row.TopKTime = time.Since(t0)
		row.TopKOut = tres.Stopped

		t0 = time.Now()
		if _, err := mine(0, core.Name, d, engine.Options{
			K: cfg.K, MinCount: mc, InitPoolMaxSize: 2, Seed: cfg.Seed, Parallelism: corePar(cfg.Parallelism),
		}); err != nil {
			return err
		}
		row.FusionTime = time.Since(t0)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
