// Benchmarks of the paper's experiments (the list cmd/pfexp runs, one
// sub-benchmark per table), of every miner at one and several workers,
// and micro-benchmarks of the substrates.
package patternfusion_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	patternfusion "repro"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ingest"
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
// The paper's experiments: every entry of the experiment list cmd/pfexp
// runs, at a small exact-miner budget, with "data" on the Section 1
// dataset. Each sub-benchmark times the regeneration of one figure's
// table, so a run with -benchtime=1x runs every figure's code once.

func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{
		Budget: 100 * time.Millisecond, Seed: 1, Parallelism: 1,
		Data: &ingest.Result{Dataset: datagen.DiagPlus(40, 20, 39)}, MinSupport: 0.3, K: 20,
	}
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
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
