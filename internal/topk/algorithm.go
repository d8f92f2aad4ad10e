package topk

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "topk"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the top Options.K most frequent closed
// patterns of at least Options.MinSize items, mined on
// Options.Parallelism workers. Options.MinCount / MinSupport act as TFP's
// optional support floor.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{K: true, MinSize: true}, func() (*engine.Report, error) {
		k, floor := resolve(d, opts)
		return mineRange(ctx, d, k, floor, opts, 0, -1), nil
	})
}

// resolve maps engine options onto TFP's k (default 100) and its optional
// support floor (1 unless a support threshold is set).
func resolve(d *dataset.Dataset, opts engine.Options) (k, floor int) {
	k = opts.K
	if k == 0 {
		k = 100
	}
	floor = 1
	if opts.MinCount > 0 || opts.MinSupport > 0 {
		floor = opts.ResolveMinCount(d)
	}
	return k, floor
}

// ShardUnits implements engine.Sharder: one task unit per root-closure
// candidate extension (computed by replaying the deterministic root
// node), or 0 for runs the root handles outright.
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	k, floor := resolve(d, opts)
	return rootUnits(d, k, floor, opts.MinSize)
}

// MineShard implements engine.Sharder: mines the subtrees of root
// candidates [lo, hi) and returns the range's top-K under the better()
// total order. The root node's visit and heap contribution ride with the
// lo == 0 shard; per-shard truncation to K is exact because the global
// top-K equals the top-K of the per-shard top-Ks.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	k, floor := resolve(d, opts)
	rep := mineRange(ctx, d, k, floor, opts, lo, hi)
	rep.Algorithm = Name
	return rep, nil
}

// MergeShards implements engine.Sharder: pool the per-shard top-Ks —
// distinct closed patterns, so the better() order is strict across the
// union — re-select the global top-K, and sum the visit counts.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("topk: MergeShards needs at least one part")
	}
	k, _ := resolve(d, opts)
	return engine.Run(Name, opts, engine.Uses{K: true, MinSize: true}, func() (*engine.Report, error) {
		res := &engine.Report{}
		var merged []*dataset.Pattern
		for _, p := range parts {
			merged = append(merged, p.Patterns...)
			res.Visited += p.Visited
			res.Stopped = res.Stopped || p.Stopped
		}
		res.Patterns = topK(merged, k)
		return res, nil
	})
}
