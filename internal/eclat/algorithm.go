package eclat

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "eclat"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the complete frequent set (optionally
// capped at Options.MaxSize items) at the resolved support threshold,
// mined on Options.Parallelism workers.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{MaxSize: true}, func() (*engine.Report, error) {
		return mineRange(ctx, d, opts.ResolveMinCount(d), opts, 0, -1), nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per frequent
// single item (the first-level equivalence-class members).
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	return len(d.FrequentItems(opts.ResolveMinCount(d)))
}

// MineShard implements engine.Sharder: mines the first-level subtrees
// [lo, hi) and returns the raw task-order partial report.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	rep := mineRange(ctx, d, opts.ResolveMinCount(d), opts, lo, hi)
	rep.Algorithm = Name
	return rep, nil
}

// MergeShards implements engine.Sharder: per-task subtrees are
// independent, so the merge is the generic shard-order concatenation.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	return engine.MergeConcat(Name, opts, engine.Uses{MaxSize: true}, parts)
}
