// Shard conformance: for every registered algorithm, splitting the run
// into task-range shards (mined independently, merged in shard order)
// must reproduce the single-node Report byte for byte — the invariant
// the distributed coordinator builds on.
package engine_test

import (
	"context"
	"sync"
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

// leaseLocally is a coordinator whose workers are in process: it runs
// engine.Lease over n shards, each mined as a worker mines a lease — a
// plan of its own, then MineShard — and returns the merged answer. It
// fails the test unless the leased shards tile [0, units) in
// contiguous blocks of near-equal size, min(n, units) of them.
func leaseLocally(t *testing.T, alg engine.Algorithm, d *dataset.Dataset, opts engine.Options, n, units int) *engine.Report {
	t.Helper()
	var mu sync.Mutex
	leased := map[int]engine.Shard{}
	rep, err := engine.Lease(context.Background(), alg, d, opts, n, func(ctx context.Context, s engine.Shard) (*engine.Report, error) {
		mu.Lock()
		leased[s.Index] = s
		mu.Unlock()
		plan, err := alg.Plan(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return plan.MineShard(ctx, s.Lo, s.Hi, s.Units)
	})
	if err != nil {
		t.Fatalf("%s: %d-way lease: %v", alg.Name(), n, err)
	}
	if len(leased) != min(n, units) {
		t.Fatalf("%s: %d-way lease of %d units leased %d shards", alg.Name(), n, units, len(leased))
	}
	for i, lo := 0, 0; i < len(leased); i++ {
		s := leased[i]
		size := s.Hi - s.Lo
		if s.Lo != lo || s.Count != len(leased) || s.Units != units || size < units/len(leased) || size > units/len(leased)+1 {
			t.Fatalf("%s: shard %d of a %d-way lease of %d units is %+v", alg.Name(), i, n, units, s)
		}
		lo = s.Hi
		if i == len(leased)-1 && lo != units {
			t.Fatalf("%s: %d-way lease of %d units ends at %d", alg.Name(), n, units, lo)
		}
	}
	return rep
}

// TestShardConformance pins the plan contract on the same workloads
// the parallelism conformance test uses: for every miner and every
// shard count, a Lease whose shards are mined by MineShard must be
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
					merged := leaseLocally(t, alg, w.d(), opts, n, plan.Units)
					if got := string(engine.EncodeReport(merged)); got != want {
						t.Fatalf("%d shards diverged from single-node:\n%s\n%s", n, got, want)
					}
				}
			})
		}
	}
}

// TestShardValidation pins the uniform Plan and MineShard precondition
// checks: a range outside the plan or a unit count other than the
// plan's is refused.
func TestShardValidation(t *testing.T) {
	d := datagen.DiagPlus(12, 6, 11)
	opts := conformanceOpts()
	for _, name := range shardedMiners {
		alg, _ := engine.Get(name)
		plan, err := alg.Plan(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		u := plan.Units
		for _, r := range [][3]int{{-1, 1, u}, {0, u + 1, u}, {2, 2, u}, {3, 1, u}, {0, 1, u + 1}} {
			if _, err := plan.MineShard(context.Background(), r[0], r[1], r[2]); err == nil {
				t.Errorf("%s: MineShard[%d,%d) of %d with %d units accepted", name, r[0], r[1], r[2], u)
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
