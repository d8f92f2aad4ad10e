package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
)

// fingerprint captures everything observable about a result: the pattern
// order, each pattern's itemset, and its exact support set.
func fingerprint(t *testing.T, res *engine.Report) []string {
	t.Helper()
	out := make([]string, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = fmt.Sprintf("%s|support=%d", p.Items.Key(), p.Support())
	}
	return out
}

// TestParallelismDeterminism is the regression test for the parallel fusion
// engine's core guarantee: the same Options.Seed must produce bit-identical
// Report.Patterns for every Parallelism value, on both the Diag and Replace
// workloads.
func TestParallelismDeterminism(t *testing.T) {
	type workload struct {
		name string
		db   *dataset.Dataset
		opts engine.Options
	}
	replaceDB, _ := datagen.Replace(1)
	workloads := []workload{
		{"Diag30", datagen.Diag(30), engine.Options{K: 20, MinCount: 15, InitPoolMaxSize: 2, Seed: 7}},
		{"Replace", replaceDB, engine.Options{K: 50, MinSupport: 0.03, Seed: 7}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var want []string
			var wantIters int
			for _, par := range []int{1, 2, 8} {
				opts := w.opts
				opts.Parallelism = par
				res := mine(t, context.Background(), w.db, opts)
				got := fingerprint(t, res)
				if want == nil {
					want, wantIters = got, res.Iterations
					continue
				}
				if res.Iterations != wantIters {
					t.Errorf("Parallelism=%d ran %d iterations, Parallelism=1 ran %d",
						par, res.Iterations, wantIters)
				}
				if len(got) != len(want) {
					t.Fatalf("Parallelism=%d returned %d patterns, Parallelism=1 returned %d",
						par, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Parallelism=%d diverged at pattern %d:\n  got  %s\n  want %s",
							par, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestParallelismValidation rejects negative Parallelism.
func TestParallelismValidation(t *testing.T) {
	alg, err := engine.Get(Name)
	if err != nil {
		t.Fatal(err)
	}
	d := datagen.Diag(8)
	if _, err := alg.Mine(context.Background(), d, engine.Options{K: 5, MinCount: 4, Parallelism: -1}); err == nil {
		t.Fatal("Parallelism=-1 accepted")
	}
}

// TestCancellationMidStep pins the per-seed cancellation responsiveness:
// a Canceled that trips after a handful of seeds must abort the run inside
// the first fusion iteration, not after it.
func TestCancellationMidStep(t *testing.T) {
	d := datagen.Diag(30)
	// Warm-start from the pre-mined initial pool so cancellation bites in
	// fusion, not while phase 1 is still running.
	pool := dataset.Itemsets(initialPool(d, 15, 2))
	seeds := make([][]int, len(pool))
	for i, s := range pool {
		seeds[i] = s
	}
	for _, par := range []int{1, 4} {
		opts := engine.Options{K: 20, MinCount: 15, Parallelism: par, Pool: seeds}
		res := mine(t, minertest.CancelAfter(3), d, opts)
		if !res.Stopped {
			t.Errorf("Parallelism=%d: canceled run not reported as stopped", par)
		}
		if res.Iterations != 0 {
			t.Errorf("Parallelism=%d: cancellation after 3 seeds finished %d full iterations",
				par, res.Iterations)
		}
	}
}
