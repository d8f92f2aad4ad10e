// Shard conformance: for every registered algorithm, splitting the run
// into task-range shards (mined independently, merged in shard order)
// must reproduce the single-node Report byte for byte — the invariant
// the distributed coordinator builds on.
package engine_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/rng"
)

// shardedMiners are the nine registered miners (engine_test registers
// no fakes). fusion and apriori split into one unit: their iterations
// and levels are globally coupled.
var shardedMiners = engine.Names()

// splitRanges cuts [0, units) into n contiguous ranges with the same
// formula the Tasks scheduler (and the coordinator's shard planner) uses.
func splitRanges(units, n int) [][2]int {
	if n > units {
		n = units
	}
	var out [][2]int
	for i := 0; i < n; i++ {
		lo, hi := i*units/n, (i+1)*units/n
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// TestShardConformance pins the plan contract on the same workloads
// the parallelism conformance test uses: for every miner and every
// shard count, one plan's MergeShards over its MineShard parts must be
// byte-identical to the single-node Mine.
func TestShardConformance(t *testing.T) {
	workloads := []struct {
		name string
		d    func() *dataset.Dataset
	}{
		{"DiagPlus", func() *dataset.Dataset { return datagen.DiagPlus(12, 6, 11) }},
		{"Random", func() *dataset.Dataset { return datagen.Random(rng.New(3), 60, 24, 0.4) }},
	}
	ctx := context.Background()
	for _, name := range shardedMiners {
		alg, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			t.Run(name+"/"+w.name, func(t *testing.T) {
				opts := conformanceOpts()
				single, err := alg.Mine(ctx, w.d(), opts)
				if err != nil {
					t.Fatal(err)
				}
				want := string(engine.EncodeReport(single))

				plan, err := alg.Plan(ctx, w.d(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Units <= 0 {
					t.Fatalf("Units = %d on a non-degenerate workload", plan.Units)
				}
				for _, n := range []int{1, 2, 3, 7} {
					var parts []*engine.Report
					for _, r := range splitRanges(plan.Units, n) {
						part, err := plan.MineShard(ctx, r[0], r[1])
						if err != nil {
							t.Fatalf("MineShard[%d,%d): %v", r[0], r[1], err)
						}
						parts = append(parts, part)
					}
					merged, err := plan.MergeShards(parts)
					if err != nil {
						t.Fatalf("MergeShards over %d parts: %v", n, err)
					}
					if got := string(engine.EncodeReport(merged)); got != want {
						t.Fatalf("%d shards diverged from single-node:\n%s\n%s", n, got, want)
					}
				}
			})
		}
	}
}

// TestShardValidation pins the uniform Plan and MineShard precondition
// checks.
func TestShardValidation(t *testing.T) {
	d := datagen.DiagPlus(12, 6, 11)
	opts := conformanceOpts()
	for _, name := range shardedMiners {
		alg, _ := engine.Get(name)
		plan, err := alg.Plan(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{-1, 1}, {0, plan.Units + 1}, {2, 2}, {3, 1}} {
			if _, err := plan.MineShard(context.Background(), r[0], r[1]); err == nil {
				t.Errorf("%s: MineShard[%d,%d) with %d units accepted", name, r[0], r[1], plan.Units)
			}
		}
		neg := opts
		neg.Parallelism = -1
		if _, err := alg.Plan(context.Background(), d, neg); err == nil {
			t.Errorf("%s: Plan accepted negative Parallelism", name)
		}
	}
}

// TestWireRoundTrip pins that the canonical wire encoding round-trips a
// Report and that the hash is a pure function of observable content.
func TestWireRoundTrip(t *testing.T) {
	alg, _ := engine.Get("closed")
	rep, err := alg.Mine(context.Background(), datagen.DiagPlus(12, 6, 11), conformanceOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := engine.EncodeReport(rep)
	back, err := engine.DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(engine.EncodeReport(back)); got != string(b) {
		t.Fatalf("wire round-trip not idempotent:\n%s\n%s", got, b)
	}
	if engine.ReportHash(rep) != engine.ReportHash(back) {
		t.Fatal("hash changed across a wire round-trip")
	}
}
