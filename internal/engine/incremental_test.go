// Incremental-mining conformance: the warm-start path (Options.Pool /
// Options.KeepPool) is held to the determinism contract of the cold
// path. A warm re-mine over an unchanged dataset must be byte-identical
// (ReportHash) to the cold run that produced its pool, and a warm
// re-mine after appended rows must satisfy the pool-containment
// invariant: every reported pattern extends some seeded pool itemset and
// meets the support threshold.
package engine_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/ingest"
)

// incrementalOpts are fusion-only options (no MinSize/MaxSize noise in
// Warnings) with KeepPool on, so every run's report carries its pool.
func incrementalOpts() engine.Options {
	return engine.Options{MinCount: 4, K: 12, Seed: 7, KeepPool: true}
}

func mineFusion(t *testing.T, d *dataset.Dataset, opts engine.Options) *engine.Report {
	t.Helper()
	alg, err := engine.Get("fusion")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWarmStartZeroAppendByteIdentical pins the spine of the incremental
// mode: warm-starting fusion from a cold run's pool, with the dataset
// unchanged, reproduces the cold Report byte-for-byte — for every
// Parallelism, since both paths share the bit-identical fusion engine.
func TestWarmStartZeroAppendByteIdentical(t *testing.T) {
	d := datagen.DiagPlus(12, 6, 11)
	cold := mineFusion(t, d, incrementalOpts())
	if cold.Pool == nil {
		t.Fatal("KeepPool run returned no pool")
	}
	if len(cold.Pool) != cold.InitPoolSize {
		t.Fatalf("pool size %d != InitPoolSize %d", len(cold.Pool), cold.InitPoolSize)
	}
	coldHash := engine.ReportHash(cold)
	for _, par := range []int{0, 1, 2, 8} {
		opts := incrementalOpts()
		opts.Pool = cold.Pool
		opts.Parallelism = par
		warm := mineFusion(t, d, opts)
		if got := engine.ReportHash(warm); got != coldHash {
			t.Fatalf("warm start (P=%d) diverged from cold run:\nwarm %s\ncold %s\nwarm report: %s",
				par, got, coldHash, engine.EncodeReport(warm))
		}
		if len(warm.Pool) != len(cold.Pool) {
			t.Fatalf("warm run re-kept %d pool itemsets, want %d", len(warm.Pool), len(cold.Pool))
		}
	}
}

// containsSubset reports whether some pool itemset is a subset of the
// canonical (sorted) itemset items.
func containsSubset(pool [][]int, items []int) bool {
	member := make(map[int]bool, len(items))
	for _, it := range items {
		member[it] = true
	}
next:
	for _, q := range pool {
		for _, it := range q {
			if !member[it] {
				continue next
			}
		}
		return true
	}
	return false
}

// TestWarmStartAfterAppendContainment grows a dataset through the real
// streaming path (ingest.Appender), warm-starts fusion from the
// pre-append pool, and pins the invariant the incremental mode promises:
// every reported pattern meets the (absolute) support threshold on the
// grown dataset and contains some seeded pool itemset — warm fusion only
// ever extends its seeds.
func TestWarmStartAfterAppendContainment(t *testing.T) {
	var base bytes.Buffer
	if err := datagen.DiagPlus(12, 6, 11).Write(&base); err != nil {
		t.Fatal(err)
	}
	app, err := ingest.NewAppender(ingest.BytesSource("grow.fimi", base.Bytes()), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := mineFusion(t, app.Result().Dataset, incrementalOpts())

	// Append traffic that both reinforces existing patterns and introduces
	// a new one (items 20..23 co-occurring 6 times).
	var chunk bytes.Buffer
	for i := 0; i < 6; i++ {
		chunk.WriteString("0 1 2 3 4 5\n")
		chunk.WriteString("20 21 22 23\n")
	}
	snap, err := app.Append(chunk.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	opts := incrementalOpts()
	opts.Pool = cold.Pool
	warm := mineFusion(t, snap.Dataset, opts)
	if len(warm.Patterns) == 0 {
		t.Fatal("warm re-mine found nothing")
	}
	for _, p := range warm.Patterns {
		if p.Support() < opts.MinCount {
			t.Errorf("warm pattern %v support %d below MinCount %d", p.Items, p.Support(), opts.MinCount)
		}
		if !containsSubset(warm.Pool, p.Items) {
			t.Errorf("warm pattern %v extends no seeded pool itemset", p.Items)
		}
	}
	// Supports only grow under appends, so the reseeded pool retains every
	// pre-append seed.
	if len(warm.Pool) != len(cold.Pool) {
		t.Fatalf("reseed dropped pool itemsets: %d -> %d", len(cold.Pool), len(warm.Pool))
	}
}

// TestReseedDropsStaleSeeds pins Reseed's filtering on the engine
// surface: pool itemsets below the threshold or outside the universe are
// dropped, not mined.
func TestReseedDropsStaleSeeds(t *testing.T) {
	d := datagen.Diag(8) // row i = all items but i: an s-itemset has support 8−s
	opts := engine.Options{MinCount: 4, K: 4, Seed: 1, KeepPool: true}
	opts.Pool = [][]int{
		{0, 1, 2, 3, 4}, // support 3 < MinCount: dropped by threshold
		{500},           // outside the universe: dropped
		{2},             // survives (support 7)
	}
	rep := mineFusion(t, d, opts)
	if len(rep.Pool) != 1 || len(rep.Pool[0]) != 1 || rep.Pool[0][0] != 2 {
		t.Fatalf("reseeded pool = %v, want [[2]]", rep.Pool)
	}
	if rep.InitPoolSize != 1 {
		t.Fatalf("InitPoolSize = %d, want 1", rep.InitPoolSize)
	}
}

// TestWarmStartEmptyPool pins that an empty non-nil pool is a valid warm
// start producing an empty result, that KeepPool hands it back empty
// but non-nil (still a warm start, not a cold one), and that
// Pool/KeepPool warn on non-fusion algorithms.
func TestWarmStartEmptyPool(t *testing.T) {
	d := datagen.Diag(6)
	opts := engine.Options{MinCount: 3, K: 4, Pool: [][]int{}, KeepPool: true}
	rep := mineFusion(t, d, opts)
	if len(rep.Patterns) != 0 || rep.InitPoolSize != 0 {
		t.Fatalf("empty warm pool mined %d patterns (init pool %d)", len(rep.Patterns), rep.InitPoolSize)
	}
	if rep.Pool == nil || len(rep.Pool) != 0 {
		t.Fatalf("empty warm pool kept as %v (nil %v), want empty non-nil", rep.Pool, rep.Pool == nil)
	}

	alg, err := engine.Get("eclat")
	if err != nil {
		t.Fatal(err)
	}
	erep, err := alg.Mine(context.Background(), d, engine.Options{MinCount: 3, Pool: [][]int{{0}}, KeepPool: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`option Pool is ignored by algorithm "eclat"`,
		`option KeepPool is ignored by algorithm "eclat"`,
	}
	if len(erep.Warnings) != 2 || erep.Warnings[0] != want[0] || erep.Warnings[1] != want[1] {
		t.Fatalf("eclat warnings = %q, want %q", erep.Warnings, want)
	}
	if erep.Pool != nil {
		t.Fatalf("eclat returned a pool: %v", erep.Pool)
	}
}

// TestReportPoolOmittedFromWire pins that the warm-start pool never
// enters the canonical encoding: two reports differing only in Pool hash
// identically, so KeepPool cannot perturb the determinism contract.
func TestReportPoolOmittedFromWire(t *testing.T) {
	d := datagen.DiagPlus(12, 6, 11)
	opts := incrementalOpts()
	withPool := mineFusion(t, d, opts)
	opts.KeepPool = false
	without := mineFusion(t, d, opts)
	if withPool.Pool == nil || without.Pool != nil {
		t.Fatalf("KeepPool plumbing broken: %v / %v", withPool.Pool != nil, without.Pool != nil)
	}
	if engine.ReportHash(withPool) != engine.ReportHash(without) {
		t.Fatal("KeepPool changed the report hash")
	}
}
