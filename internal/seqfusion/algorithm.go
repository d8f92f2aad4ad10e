package seqfusion

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// OrderedPatterns reports that this miner's pattern Items are ordered
// sequences, not canonical itemsets. Consumers that re-canonicalize
// pattern items (the ingest symbol remapper) check for this marker and
// preserve item order instead.
func (algorithm) OrderedPatterns() bool { return true }

// uses declares the options the miner reads: K (seed-slot count = max
// patterns), Tau (core ratio), Seed (RNG root) and MinSize (minimum
// reported sequence length).
var uses = engine.Uses{K: true, Tau: true, Seed: true, MinSize: true}

// Mine implements engine.Algorithm: K independent seed-slot trajectories
// over the static 1-/2-gram pool, merged in slot order. It is definitionally
// MergeShards(d, opts, [MineShard(ctx, d, opts, 0, K)]), inlined so the
// PhaseStart event precedes the init-pool work.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, uses, func() (*engine.Report, error) {
		cfg := resolve(d, opts)
		part := mineShardRaw(ctx, d, opts, cfg, 0, cfg.k)
		return mergeRaw(d, cfg, []*engine.Report{part}), nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per seed slot, so
// the unit count is the resolved K — a pure function of Options alone.
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	return resolve(d, opts).k
}

// MineShard implements engine.Sharder: mine seed slots [lo, hi) and
// return the raw partial report (patterns in slot order, unsorted, no
// warnings), with the pool build attributed to the lo == 0 shard.
func (algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	cfg := resolve(d, opts)
	if err := engine.ValidateShard(Name, opts, lo, hi, cfg.k); err != nil {
		return nil, err
	}
	return mineShardRaw(ctx, d, opts, cfg, lo, hi), nil
}

// MergeShards implements engine.Sharder: concatenate raw parts in shard
// order, dedup by sequence identity (first slot wins), sum counters, and
// bracket with Run — reproducing the single-node Mine byte for byte.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: MergeShards(%s) needs at least one part", Name)
	}
	return engine.Run(Name, opts, uses, func() (*engine.Report, error) {
		return mergeRaw(d, resolve(d, opts), parts), nil
	})
}

// interface conformance
var (
	_ engine.Algorithm = algorithm{}
	_ engine.Sharder   = algorithm{}
)
