// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus ablations of Pattern-Fusion's design choices and
// micro-benchmarks of the substrates. Custom metrics report the quantities
// the paper plots (approximation error Δ, patterns recovered), so `go test
// -bench=. -benchmem` reproduces the experiment outputs alongside timings;
// cmd/pfexp renders the same experiments as tables.
package patternfusion_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	patternfusion "repro"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/tidset"
)

// Shared heavyweight fixtures, built once.
var (
	replaceOnce   sync.Once
	replaceDB     *dataset.Dataset
	replacePaths  []itemset.Itemset
	replaceClosed []itemset.Itemset

	microOnce sync.Once
	microDB   *dataset.Dataset
	microTop  []*dataset.Pattern

	seqReplaceOnce sync.Once
	seqReplaceDB   *dataset.Dataset

	questOnce sync.Once
	questDB   *dataset.Dataset
)

func replaceFixture(b *testing.B) (*dataset.Dataset, []itemset.Itemset, []itemset.Itemset) {
	b.Helper()
	replaceOnce.Do(func() {
		replaceDB, replacePaths = datagen.Replace(1)
		res := mine(b, "closed", replaceDB, patternfusion.Options{MinSupport: 0.03})
		replaceClosed = dataset.Itemsets(res.Patterns)
	})
	return replaceDB, replacePaths, replaceClosed
}

// seqReplaceFixture is the Replace trace with its ordered view attached
// — the dataset a "seq"-format ingestion of the fixture would produce.
func seqReplaceFixture(b *testing.B) *dataset.Dataset {
	b.Helper()
	seqReplaceOnce.Do(func() {
		rows, _ := datagen.ReplaceSequences(1)
		seqReplaceDB = dataset.MustNew(rows)
		seqReplaceDB.SetSequences(rows)
	})
	return seqReplaceDB
}

// questFixture is sparse market-basket data in the fusion-quest
// benchmark workload's shape: 50,000 Quest transactions over 1,000 items
// (seed 1). At σ = 0.01 most of fusion's initial pool holds sparse
// TID-sets, where the dense Replace and Microarray fixtures hold none.
func questFixture(b *testing.B) *dataset.Dataset {
	b.Helper()
	questOnce.Do(func() {
		questDB = datagen.Quest(rng.New(1), datagen.QuestConfig{Txns: 50000, Items: 1000})
	})
	return questDB
}

func microFixture(b *testing.B) (*dataset.Dataset, []*dataset.Pattern) {
	b.Helper()
	microOnce.Do(func() {
		microDB, _ = datagen.Microarray(1)
		microTop = mine(b, "closedrows", microDB, patternfusion.Options{MinCount: 30, MinSize: 70}).Patterns
	})
	return microDB, microTop
}

// ---------------------------------------------------------------------------
// Section 1 motivating example.

func BenchmarkIntroDiagPlusFusion(b *testing.B) {
	d := datagen.DiagPlus(40, 20, 39)
	colossal := itemset.Canonical(datagen.DiagColossal(40, 39))
	found := 0
	for i := 0; i < b.N; i++ {
		res := mine(b, "fusion", d, patternfusion.Options{K: 20, MinCount: 20, InitPoolMaxSize: 2, Seed: uint64(i + 1)})
		for _, p := range res.Patterns {
			if p.Items.Equal(colossal) {
				found++
				break
			}
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "colossal-hit-rate")
}

// ---------------------------------------------------------------------------
// Figure 6: run time on Diag_n. The exact miner's exponential blow-up is
// benchmarked at sizes it can still finish; Pattern-Fusion at the sizes the
// paper sweeps.

func BenchmarkFig6MaximalDiag(b *testing.B) {
	for _, n := range []int{10, 12, 14, 16} {
		b.Run(byN(n), func(b *testing.B) {
			d := datagen.Diag(n)
			for i := 0; i < b.N; i++ {
				res := mine(b, "maximal", d, patternfusion.Options{MinCount: n / 2})
				if res.Stopped {
					b.Fatal("unexpected stop")
				}
			}
		})
	}
}

func BenchmarkFig6FusionDiag(b *testing.B) {
	for _, n := range []int{10, 20, 30, 40} {
		b.Run(byN(n), func(b *testing.B) {
			d := datagen.Diag(n)
			for i := 0; i < b.N; i++ {
				mine(b, "fusion", d, patternfusion.Options{K: 40, MinCount: n / 2, InitPoolMaxSize: 2, Seed: uint64(i + 1)})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 7: approximation error on Diag40 vs uniform sampling.

func BenchmarkFig7ApproxErrorDiag40(b *testing.B) {
	d := datagen.Diag(40)
	r := rng.New(7)
	q := make([]itemset.Itemset, 300)
	for i := range q {
		q[i] = itemset.Canonical(r.SampleInts(40, 20))
	}
	var fusionDelta, uniformDelta float64
	for i := 0; i < b.N; i++ {
		res := mine(b, "fusion", d, patternfusion.Options{K: 100, MinCount: 20, InitPoolMaxSize: 2, Seed: uint64(i + 1)})
		fusionDelta = quality.Delta(dataset.Itemsets(res.Patterns), q)
		uniform := make([]itemset.Itemset, 100)
		for j := range uniform {
			uniform[j] = itemset.Canonical(r.SampleInts(40, 20))
		}
		uniformDelta = quality.Delta(uniform, q)
	}
	b.ReportMetric(fusionDelta, "Δ-fusion")
	b.ReportMetric(uniformDelta, "Δ-uniform")
}

// ---------------------------------------------------------------------------
// Figure 8: approximation error on Replace.

func BenchmarkFig8ApproxErrorReplace(b *testing.B) {
	d, paths, closed := replaceFixture(b)
	q42 := quality.FilterBySize(closed, 42)
	b.ResetTimer()
	var delta float64
	hits := 0
	for i := 0; i < b.N; i++ {
		res := mine(b, "fusion", d, patternfusion.Options{K: 100, MinSupport: 0.03, Seed: uint64(i + 1)})
		p := dataset.Itemsets(res.Patterns)
		delta = quality.Delta(p, q42)
		found := 0
		for _, path := range paths {
			for _, got := range p {
				if got.Equal(path) {
					found++
					break
				}
			}
		}
		if found == len(paths) {
			hits++
		}
	}
	b.ReportMetric(delta, "Δ-size≥42")
	b.ReportMetric(float64(hits)/float64(b.N), "all-colossal-rate")
}

// ---------------------------------------------------------------------------
// Figure 9: mining result comparison on the microarray dataset.

func BenchmarkFig9MicroarrayComparison(b *testing.B) {
	d, top := microFixture(b)
	b.ResetTimer()
	var recovered, total float64
	for i := 0; i < b.N; i++ {
		res := mine(b, "fusion", d, patternfusion.Options{K: 100, MinCount: 30, InitPoolMaxSize: 2, Seed: uint64(i + 1)})
		found := make(map[string]bool, len(res.Patterns))
		for _, p := range res.Patterns {
			found[p.Items.Key()] = true
		}
		recovered, total = 0, 0
		for _, p := range top {
			total++
			if found[p.Items.Key()] {
				recovered++
			}
		}
	}
	b.ReportMetric(recovered, "colossal-recovered")
	b.ReportMetric(total, "colossal-complete")
}

// ---------------------------------------------------------------------------
// Figure 10: run time on the microarray dataset with decreasing support.
// Pattern-Fusion must level off (compare the sub-benchmark timings); the
// exact miners' blow-up is visible in BenchmarkFig10MaximalALL.

func BenchmarkFig10FusionALL(b *testing.B) {
	d, _ := microFixture(b)
	for _, mc := range []int{31, 28, 25, 21} {
		b.Run(byMinCount(mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mine(b, "fusion", d, patternfusion.Options{K: 100, MinCount: mc, InitPoolMaxSize: 2, Seed: uint64(i + 1)})
			}
		})
	}
}

func BenchmarkFig10MaximalALL(b *testing.B) {
	d, _ := microFixture(b)
	// Only the supports the exact miner still finishes at laptop scale.
	for _, mc := range []int{31, 30, 29} {
		b.Run(byMinCount(mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mine(b, "maximal", d, patternfusion.Options{MinCount: mc})
			}
		})
	}
}

func BenchmarkFig10TopKALL(b *testing.B) {
	d, _ := microFixture(b)
	for _, mc := range []int{31, 28, 25} {
		b.Run(byMinCount(mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mine(b, "topk", d, patternfusion.Options{K: 5000, MinSize: 5, MinCount: mc})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4): the design choices behind Pattern-Fusion,
// measured on the Replace workload with recall of the three colossal
// patterns as the quality metric.

// ablationRun mines the Replace workload with the registered fusion
// defaults, as modified by mutate: engine options for τ and the initial
// pool, the fusion-only knobs for everything else.
func ablationRun(b *testing.B, mutate func(*patternfusion.Options, *core.Knobs)) {
	d, paths, _ := replaceFixture(b)
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		opts := patternfusion.Options{K: 100, MinSupport: 0.03, Seed: uint64(i + 1)}
		kn := core.DefaultKnobs(opts.K)
		mutate(&opts, &kn)
		res, err := core.WithKnobs(kn).Mine(context.Background(), d, opts)
		if err != nil {
			b.Fatal(err)
		}
		hits := 0
		for _, path := range paths {
			for _, p := range res.Patterns {
				if p.Items.Equal(path) {
					hits++
					break
				}
			}
		}
		found += hits
	}
	b.ReportMetric(float64(found)/float64(3*b.N), "colossal-recall")
}

func BenchmarkAblationTau(b *testing.B) {
	for _, tau := range []float64{0.5, 0.7, 0.9} {
		b.Run(byTau(tau), func(b *testing.B) {
			ablationRun(b, func(o *patternfusion.Options, _ *core.Knobs) { o.Tau = tau })
		})
	}
}

func BenchmarkAblationInitPoolSize(b *testing.B) {
	for _, s := range []int{1, 2, 3} {
		b.Run(byN(s), func(b *testing.B) {
			ablationRun(b, func(o *patternfusion.Options, _ *core.Knobs) { o.InitPoolMaxSize = s })
		})
	}
}

func BenchmarkAblationFusionDraws(b *testing.B) {
	for _, draws := range []int{2, 10, 20} {
		b.Run(byN(draws), func(b *testing.B) {
			ablationRun(b, func(_ *patternfusion.Options, k *core.Knobs) { k.FusionDraws = draws })
		})
	}
}

func BenchmarkAblationBallSize(b *testing.B) {
	for _, size := range []int{256, 2048, 8192} {
		b.Run(byN(size), func(b *testing.B) {
			ablationRun(b, func(_ *patternfusion.Options, k *core.Knobs) { k.MaxBallSize = size })
		})
	}
}

func BenchmarkAblationElitism(b *testing.B) {
	for _, e := range []int{0, 26} {
		b.Run(byN(e), func(b *testing.B) {
			ablationRun(b, func(_ *patternfusion.Options, k *core.Knobs) { k.Elitism = e })
		})
	}
}

// ---------------------------------------------------------------------------
// Parallel fusion engine: sequential vs. parallel throughput of the same
// deterministic mining run. The `p=1` and `p=N` sub-benchmarks execute
// bit-identical work (Options.Parallelism does not change results), so
// their ns/op ratio is the engine's wall-clock speedup on this machine.

func benchMineParallelism(b *testing.B, d *dataset.Dataset, opts patternfusion.Options) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 2 // exercise the worker pool even on a single-core machine
	}
	for _, par := range []int{1, parallel} {
		b.Run("p="+itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts
				o.Parallelism = par
				mine(b, "fusion", d, o)
			}
		})
	}
}

func BenchmarkMineReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	benchMineParallelism(b, d, patternfusion.Options{K: 100, MinSupport: 0.03, Seed: 1})
}

func BenchmarkMineMicroarray(b *testing.B) {
	d, _ := microFixture(b)
	b.ResetTimer()
	benchMineParallelism(b, d, patternfusion.Options{K: 100, MinCount: 25, InitPoolMaxSize: 2, Seed: 1})
}

// BenchmarkMineQuest is fusion on sparse data: its ball search runs
// mostly sparse∧sparse pairs, which the Replace and Microarray runs above
// never reach.
func BenchmarkMineQuest(b *testing.B) {
	d := questFixture(b)
	b.ResetTimer()
	benchMineParallelism(b, d, patternfusion.Options{K: 100, MinSupport: 0.01, Seed: 1})
}

// BenchmarkIncrementalMine quantifies the streaming warm start on the
// Replace fixture: "cold" is a full re-mine (Apriori phase 1 + fusion
// from the complete ≤3-itemset pool), "warm" is the incremental policy a
// pfserve monitor runs between appends — re-seed fusion from the
// previous Report's converged pool (its ≤K colossal patterns) via
// Options.Pool, skipping phase 1 and the pool-shrinking iterations
// entirely. The warm/cold ns/op ratio is the per-re-mine cost of keeping
// a live answer fresh; the warm result is the incremental approximation
// pinned by the pool-containment conformance test (previously-found
// patterns are re-validated and extended; patterns over genuinely new
// items wait for the next cold re-mine).
func BenchmarkIncrementalMine(b *testing.B) {
	d, _, _ := replaceFixture(b)
	opts := patternfusion.Options{K: 100, MinSupport: 0.03, Seed: 1, Parallelism: 1}
	prev := mine(b, "fusion", d, opts)
	warm := opts
	for _, p := range prev.Patterns {
		warm.Pool = append(warm.Pool, p.Items)
	}
	b.ResetTimer()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mine(b, "fusion", d, opts)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mine(b, "fusion", d, warm)
		}
	})
}

// ---------------------------------------------------------------------------
// Registry-wide parallel mining: every miner honors Options.Parallelism
// through the engine's shared Tasks scheduler, with bit-identical reports
// for any worker count. Each benchmark runs the identical deterministic
// job at p=1 and p=8, so the ns/op ratio of the sub-benchmarks is the
// miner's multi-core scaling on this machine (≈1 on a single-core runner;
// the outputs are guaranteed equal either way, so the comparison is pure
// scheduling).

func benchEngineParallelism(b *testing.B, algo string, d *dataset.Dataset, opts patternfusion.Options) {
	for _, par := range []int{1, 8} {
		b.Run("p="+itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := opts
				o.Parallelism = par
				mine(b, algo, d, o)
			}
		})
	}
}

func BenchmarkEngineClosedReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "closed", d, patternfusion.Options{MinSupport: 0.03})
}

func BenchmarkEngineEclatReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "eclat", d, patternfusion.Options{MinSupport: 0.03, MaxSize: 3})
}

func BenchmarkEngineAprioriReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "apriori", d, patternfusion.Options{MinSupport: 0.03, MaxSize: 3})
}

func BenchmarkEngineFPGrowthReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "fpgrowth", d, patternfusion.Options{MinSupport: 0.03, MaxSize: 3})
}

// BenchmarkEngineSeqFusionReplace mines the Replace trace as ordered
// sequences — the seqfusion golden workload (σ = 0.03, 12 seed slots) —
// through the engine, at p=1 and p=8 like the other miners.
func BenchmarkEngineSeqFusionReplace(b *testing.B) {
	d := seqReplaceFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "seqfusion", d, patternfusion.Options{MinCount: 132, K: 12, Seed: 1})
}

func BenchmarkEngineMaximalMicroarray(b *testing.B) {
	d, _ := microFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "maximal", d, patternfusion.Options{MinCount: 30})
}

func BenchmarkEngineClosedRowsMicroarray(b *testing.B) {
	d, _ := microFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "closedrows", d, patternfusion.Options{MinCount: 30, MinSize: 70})
}

func BenchmarkEngineTopKMicroarray(b *testing.B) {
	d, _ := microFixture(b)
	b.ResetTimer()
	benchEngineParallelism(b, "topk", d, patternfusion.Options{MinCount: 28, K: 5000, MinSize: 5})
}

// ---------------------------------------------------------------------------
// Charm hot-path micro-benchmarks over the compressed TID-set substrate:
// the closure probe and the pooled intersection are the two kernels every
// closed-pattern emission runs, so their allocs/op must stay at zero for
// the miner-level numbers above to hold.

// BenchmarkEngineCharmClosureProbe measures the vertical closure on the
// TID-sets of real closed patterns from the Replace workload — SubsetOf
// column tests over dense and sparse support sets, exactly as charm sees
// them.
func BenchmarkEngineCharmClosureProbe(b *testing.B) {
	d, _, _ := replaceFixture(b)
	pats := mine(b, "closed", d, patternfusion.Options{MinSupport: 0.03}).Patterns
	closer := dataset.NewCloser(d)
	for _, p := range pats { // grow the reused output buffer to steady state
		closer.Closure(p.TIDs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(closer.Closure(pats[i%len(pats)].TIDs)) == 0 {
			b.Fatal("empty closure")
		}
	}
}

// BenchmarkEngineCharmIntersect measures charm's inner-loop step — a
// pooled sub.AndOf(prefixTIDs, itemColumn) over every item column of the
// Replace dataset — which must run allocation-free.
func BenchmarkEngineCharmIntersect(b *testing.B) {
	d, _, _ := replaceFixture(b)
	pool := tidset.NewPool(d.Size())
	all := tidset.Full(d.Size())
	n := d.NumItems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := pool.Get()
		sub.AndOf(all, d.ItemTIDs(i%n))
		pool.Put(sub)
	}
}

// BenchmarkEngineCharmAndCountAtLeast measures the early-exit support
// bound over pairs of real item columns (the frequency prune charm and
// the fusion ball search both run before materializing an intersection).
func BenchmarkEngineCharmAndCountAtLeast(b *testing.B) {
	d, _, _ := replaceFixture(b)
	minCount := d.MinCount(0.03)
	n := d.NumItems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := d.ItemTIDs(i%n), d.ItemTIDs((i+7)%n)
		x.AndCountAtLeast(y, minCount)
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// denseTIDSetPair draws two dense TID-sets over 4096 rows, 2000 random
// inserts each (seed 1): the dense∧dense shape the ball search and the
// fusion draws intersect.
func denseTIDSetPair(b *testing.B) (x, y *tidset.Set) {
	r := rng.New(1)
	var xs, ys []int
	for i := 0; i < 2000; i++ {
		xs = append(xs, r.Intn(4096))
		ys = append(ys, r.Intn(4096))
	}
	x, y = tidset.FromIndices(4096, xs), tidset.FromIndices(4096, ys)
	if !x.IsDense() || !y.IsDense() {
		b.Fatal("fixture sets are not dense")
	}
	return x, y
}

func BenchmarkTIDSetAndCount(b *testing.B) {
	x, y := denseTIDSetPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.AndCount(y) < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkTIDSetAndCountAtLeast measures the early-exit intersection bound
// against the full AndCount above: the ball search runs it once per
// (seed, candidate) pair, so its constant factor is the fusion inner loop's.
func BenchmarkTIDSetAndCountAtLeast(b *testing.B) {
	x, y := denseTIDSetPair(b)
	threshold := x.AndCount(y) + 1 // worst case: undecidable until the bound kicks in
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.AndCountAtLeast(y, threshold) {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkTIDSetAndCountAtLeastSparse measures the two ways to decide a
// sparse∧sparse ball test over a 50k-row universe (about 1,000 random
// members each, threshold (sa+sb)/4, a miss): "merge" runs the sorted
// merge of the two arrays, and "dense-probe" probes one set's elements
// against a dense copy of the other, written once outside the loop as the
// ball search writes a sparse seed once per scan.
func BenchmarkTIDSetAndCountAtLeastSparse(b *testing.B) {
	const n = 50000
	r := rng.New(1)
	var xs, ys []int
	for i := 0; i < 1000; i++ {
		xs = append(xs, r.Intn(n))
		ys = append(ys, r.Intn(n))
	}
	x, y := tidset.FromIndices(n, xs), tidset.FromIndices(n, ys)
	if x.IsDense() || y.IsDense() {
		b.Fatal("fixture sets are not sparse")
	}
	threshold := (x.Count() + y.Count()) / 4
	dense := tidset.New(n)
	dense.DenseCopyFrom(x)
	for _, c := range []struct {
		name string
		x    *tidset.Set
	}{{"merge", x}, {"dense-probe", dense}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.x.AndCountAtLeast(y, threshold) {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkItemsetFingerprint measures the 128-bit hash that replaced
// decimal string keys in every dedup map on the mining path.
func BenchmarkItemsetFingerprint(b *testing.B) {
	s := make(itemset.Itemset, 64)
	for i := range s {
		s[i] = i * 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Fingerprint() == (itemset.Fingerprint{}) {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkCloserMicroarray measures the vertical closure on the support
// sets of Microarray's closed patterns of at least 70 items: wide rows,
// few transactions, one or two words per column test.
func BenchmarkCloserMicroarray(b *testing.B) {
	d, top := microFixture(b)
	closer := dataset.NewCloser(d)
	for _, p := range top { // grow the reused output buffer to steady state
		closer.Closure(p.TIDs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(closer.Closure(top[i%len(top)].TIDs)) == 0 {
			b.Fatal("empty closure")
		}
	}
}

func BenchmarkTIDSetReplace(b *testing.B) {
	d, paths, _ := replaceFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TIDSet(paths[i%len(paths)])
	}
}

func BenchmarkAprioriInitPoolReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine(b, "apriori", d, patternfusion.Options{MinSupport: 0.03, MaxSize: 2})
	}
}

// BenchmarkAprioriInitPoolQuest builds fusion's phase-1 pool on the
// sparse Quest fixture, whose level joins intersect mostly sparse parents
// with sparse columns.
func BenchmarkAprioriInitPoolQuest(b *testing.B) {
	d := questFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine(b, "apriori", d, patternfusion.Options{MinSupport: 0.01, MaxSize: 3})
	}
}

func BenchmarkClosedMinerReplace(b *testing.B) {
	d, _, _ := replaceFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine(b, "closed", d, patternfusion.Options{MinSupport: 0.03})
	}
}

func BenchmarkCarpenterMicroarray(b *testing.B) {
	d, _ := microFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine(b, "closedrows", d, patternfusion.Options{MinCount: 30, MinSize: 70})
	}
}

func BenchmarkQualityDelta(b *testing.B) {
	_, _, closed := replaceFixture(b)
	p := quality.FilterBySize(closed, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality.Delta(p, closed)
	}
}

func BenchmarkPublicAPIQuickMine(b *testing.B) {
	db := patternfusion.DiagPlus(20, 10, 15)
	for i := 0; i < b.N; i++ {
		mine(b, "fusion", db, patternfusion.Options{K: 10, MinCount: 10, Seed: uint64(i + 1)})
	}
}

// ---------------------------------------------------------------------------

func byN(n int) string        { return "n=" + itoa(n) }
func byMinCount(n int) string { return "minsup=" + itoa(n) }
func byTau(t float64) string {
	switch t {
	case 0.5:
		return "tau=0.5"
	case 0.7:
		return "tau=0.7"
	case 0.9:
		return "tau=0.9"
	}
	return "tau"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
