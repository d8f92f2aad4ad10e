package fpgrowth

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fptree"
)

// Name is this algorithm's engine registry name.
const Name = "fpgrowth"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the complete frequent set (optionally
// capped at Options.MaxSize items) at the resolved support threshold,
// mined on Options.Parallelism workers. FP-growth is a horizontal miner,
// so the reported patterns carry memoized support counts but nil TID sets.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{MaxSize: true}, func() (*engine.Report, error) {
		return mineRange(ctx, d, opts.ResolveMinCount(d), opts, 0, -1), nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per root header
// item, or a single unit for the single-path degenerate root.
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	tree := fptree.Build(d, opts.ResolveMinCount(d))
	if tree.SinglePath() != nil {
		return 1
	}
	return len(tree.Items())
}

// MineShard implements engine.Sharder: mines the conditional trees of
// header items [lo, hi) and returns the raw task-order partial report.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	rep := mineRange(ctx, d, opts.ResolveMinCount(d), opts, lo, hi)
	rep.Algorithm = Name
	return rep, nil
}

// MergeShards implements engine.Sharder: per-header-item subtrees are
// independent, so the merge is the generic shard-order concatenation.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	return engine.MergeConcat(Name, opts, engine.Uses{MaxSize: true}, parts)
}
