package seqfusion_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/seq"
	_ "repro/internal/seqfusion"
)

// seqDataset builds an engine dataset with the ordered view attached,
// the way a "seq"-format ingestion delivers it.
func seqDataset(t *testing.T, rows [][]int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New(rows)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSequences(rows)
	return d
}

func mineSeqfusion(t *testing.T, d *dataset.Dataset, opts engine.Options) *engine.Report {
	t.Helper()
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOrderPreserved pins the defining property of the sequence miner:
// pattern Items are ordered sequences, not canonical itemsets. On rows
// that all read <2 1>, the mined pattern must be [2 1] — a canonicalizing
// miner would report [1 2].
func TestOrderPreserved(t *testing.T) {
	rows := [][]int{{2, 1}, {2, 1}, {2, 1}, {2, 1}}
	rep := mineSeqfusion(t, seqDataset(t, rows), engine.Options{MinCount: 2, K: 4, Seed: 1})
	if len(rep.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	found := false
	for _, p := range rep.Patterns {
		if len(p.Items) == 2 && p.Items[0] == 2 && p.Items[1] == 1 {
			found = true
			if p.Support() != len(rows) {
				t.Errorf("pattern <2 1> support = %d, want %d", p.Support(), len(rows))
			}
		}
	}
	if !found {
		t.Fatalf("pattern <2 1> not mined; got %v", rep.Patterns)
	}
	if rep.Quality == nil {
		t.Fatal("completed seqfusion run carries no quality estimate")
	}
}

// TestTransactionFallback pins that a dataset without an attached
// sequence view mines its canonical transactions read as ascending
// sequences — the Replace reading — rather than erroring.
func TestTransactionFallback(t *testing.T) {
	rep := mineSeqfusion(t, datagen.Diag(8), engine.Options{MinCount: 7, K: 4, Seed: 1})
	if rep.Stopped {
		t.Fatal("un-canceled run reported Stopped")
	}
	// Diag(8): item i missing only from row i, so every unigram has
	// support 7 and any fused pattern stays frequent at MinCount 7.
	if len(rep.Patterns) == 0 {
		t.Fatal("no patterns mined from the transaction fallback view")
	}
	for _, p := range rep.Patterns {
		s := seq.Sequence(p.Items)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("fallback-view pattern %v not an ascending sequence", s)
			}
		}
	}
}

// TestMinSizeFilter pins MinSize as a minimum sequence length: closures
// shorter than it are dropped, and a run whose every closure is dropped
// reports no patterns and (having an undefined partition of a non-empty
// candidate pool) no quality estimate.
func TestMinSizeFilter(t *testing.T) {
	rows := [][]int{{2, 1}, {2, 1}, {2, 1}, {2, 1}}
	rep := mineSeqfusion(t, seqDataset(t, rows), engine.Options{MinCount: 2, K: 4, Seed: 1, MinSize: 3})
	if len(rep.Patterns) != 0 {
		t.Fatalf("MinSize=3 kept %v", rep.Patterns)
	}
	if rep.Quality != nil {
		t.Fatalf("empty result against a non-empty pool carries quality %+v", rep.Quality)
	}
}

// TestInvalidOptions pins the validation surface: only zero means "use
// the default"; out-of-range values are errors, not silent rewrites.
func TestInvalidOptions(t *testing.T) {
	d := seqDataset(t, [][]int{{1, 2}, {1, 2}})
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []engine.Options{
		{MinCount: 1, K: -1},
		{MinCount: 1, Tau: -0.5},
		{MinCount: 1, Tau: 1.5},
		{MinCount: 1, MinSize: -2},
	} {
		if _, err := alg.Mine(context.Background(), d, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}

// TestRepeatedEventsSurvive pins that repeats inside a sequence are
// preserved end to end: rows reading <1 2 1> must yield that pattern
// even though the canonical transaction view collapses to {1 2}.
func TestRepeatedEventsSurvive(t *testing.T) {
	rows := [][]int{{1, 2, 1}, {1, 2, 1}, {1, 2, 1}}
	rep := mineSeqfusion(t, seqDataset(t, rows), engine.Options{MinCount: 2, K: 4, Seed: 1})
	want := seq.Sequence{1, 2, 1}
	for _, p := range rep.Patterns {
		if want.Equal(seq.Sequence(p.Items)) {
			return
		}
	}
	t.Fatalf("pattern <1 2 1> not mined; got %v", rep.Patterns)
}

// plantedDataset builds numSeqs sequences; frac of them embed the colossal
// subsequence (with 0-2 random noise events interleaved before each of
// its events), the rest are pure noise. Noise events are drawn above the
// colossal alphabet.
func plantedDataset(t *testing.T, r *rng.RNG, numSeqs int, colossal seq.Sequence, frac float64, alphabet int) *dataset.Dataset {
	t.Helper()
	noise := func() int { return colossal[len(colossal)-1] + 1 + r.Intn(alphabet) }
	rows := make([][]int, numSeqs)
	for i := range rows {
		var s []int
		if r.Float64() < frac {
			for _, e := range colossal {
				for k := r.Intn(3); k > 0; k-- {
					s = append(s, noise())
				}
				s = append(s, e)
			}
		} else {
			for j := 3 + r.Intn(10); j > 0; j-- {
				s = append(s, noise())
			}
		}
		rows[i] = s
	}
	return seqDataset(t, rows)
}

// TestRecoversPlantedColossalSequence is the recovery regression: a
// 12-event subsequence planted in 40% of 120 noisy sequences must come
// back exactly, with its full support, within K patterns.
func TestRecoversPlantedColossalSequence(t *testing.T) {
	colossal := seq.Sequence{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	d := plantedDataset(t, rng.New(5), 120, colossal, 0.4, 30)
	rep := mineSeqfusion(t, d, engine.Options{K: 10, MinCount: 30})
	if len(rep.Patterns) > 10 {
		t.Fatalf("result exceeds K: %d", len(rep.Patterns))
	}
	want := bruteSupport(d, colossal)
	for _, p := range rep.Patterns {
		if colossal.Equal(seq.Sequence(p.Items)) {
			if p.Support() != want {
				t.Fatalf("colossal support %d, want %d", p.Support(), want)
			}
			return
		}
	}
	t.Fatalf("colossal subsequence not recovered; got %v", rep.Patterns)
}

// TestResultsAreFrequentSubsequences pins that every reported pattern is
// a frequent subsequence carrying its exact support count.
func TestResultsAreFrequentSubsequences(t *testing.T) {
	d := plantedDataset(t, rng.New(6), 80, seq.Sequence{0, 1, 2, 3, 4, 5, 6, 7}, 0.5, 20)
	rep := mineSeqfusion(t, d, engine.Options{K: 8, MinCount: 20})
	for _, p := range rep.Patterns {
		got := bruteSupport(d, seq.Sequence(p.Items))
		if got != p.Support() {
			t.Fatalf("pattern %v reports support %d, true support %d", p.Items, p.Support(), got)
		}
		if got < 20 {
			t.Fatalf("infrequent pattern %v (support %d)", p.Items, got)
		}
	}
}

// TestEmptyDataset pins the degenerate input: no sequences, no patterns,
// no error.
func TestEmptyDataset(t *testing.T) {
	rep := mineSeqfusion(t, seqDataset(t, nil), engine.Options{K: 5, MinCount: 1})
	if len(rep.Patterns) != 0 {
		t.Fatalf("empty dataset yielded %d patterns", len(rep.Patterns))
	}
}

// bruteSupport counts the attached rows of d that contain p as a
// subsequence — the reference the miner's index-pruned supports must
// match.
func bruteSupport(d *dataset.Dataset, p seq.Sequence) int {
	n := 0
	for _, row := range d.Sequences() {
		if p.IsSubsequenceOf(row) {
			n++
		}
	}
	return n
}

// TestEmptyPoolQuality pins the answer of a run whose core pool is
// empty (no event reaches the support threshold): its root report is
// blank, so the range loop leaves it out of the merge, and the answer
// still carries Δ = 0 — single-node and through a coordinator's lease
// alike.
func TestEmptyPoolQuality(t *testing.T) {
	d := seqDataset(t, [][]int{{1, 2}, {2, 1}, {1, 3}})
	opts := engine.Options{MinCount: 4, K: 3, Seed: 1}
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	leased, err := engine.Lease(context.Background(), alg, d, opts, 2, func(ctx context.Context, s engine.Shard) (*engine.Report, error) {
		plan, err := alg.Plan(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return plan.MineShard(ctx, s.Lo, s.Hi, s.Units)
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*engine.Report{"mine": mineSeqfusion(t, d, opts), "lease": leased} {
		if len(rep.Patterns) != 0 || rep.InitPoolSize != 0 {
			t.Fatalf("%s: %d patterns from a pool of %d, want none", name, len(rep.Patterns), rep.InitPoolSize)
		}
		if rep.Quality == nil || rep.Quality.Delta != 0 {
			t.Fatalf("%s: quality %+v, want Δ = 0", name, rep.Quality)
		}
	}
}

// TestShardAnswerCarriesNoDelta pins that Δ is computed once, in the
// merge that includes the plan's root: a worker's shard answer carries
// none, and the coordinator's merged answer carries the single-node Δ.
func TestShardAnswerCarriesNoDelta(t *testing.T) {
	rows, _ := datagen.ReplaceSequences(1)
	rows = rows[:400]
	d := seqDataset(t, rows)
	opts := engine.Options{MinCount: 30, K: 6, Seed: 1}
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := alg.Plan(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := plan.MineShard(context.Background(), 0, 3, plan.Units)
	if err != nil {
		t.Fatal(err)
	}
	if len(shard.Patterns) == 0 || shard.Quality != nil {
		t.Fatalf("shard answer: %d patterns, quality %+v; want patterns and no Δ", len(shard.Patterns), shard.Quality)
	}
	single := mineSeqfusion(t, d, opts)
	leased, err := engine.Lease(context.Background(), alg, d, opts, 2, func(ctx context.Context, s engine.Shard) (*engine.Report, error) {
		plan, err := alg.Plan(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return plan.MineShard(ctx, s.Lo, s.Hi, s.Units)
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.Quality == nil || engine.ReportHash(leased) != engine.ReportHash(single) {
		t.Fatalf("leased answer %+v differs from single-node %+v", leased.Quality, single.Quality)
	}
}
