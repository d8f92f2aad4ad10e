package carpenter

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name ("closedrows": closed
// frequent sets by CARPENTER-style row enumeration).
const Name = "closedrows"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the closed frequent sets of at least
// Options.MinSize items at the resolved support threshold, mined by row
// enumeration on Options.Parallelism workers — the method of choice for
// microarray-shaped data.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{MinSize: true}, func() (*engine.Report, error) {
		return mineRange(ctx, d, opts.ResolveMinCount(d), opts, 0, -1), nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per frontier
// subtree of the deterministic dispatcher expansion, or 0 for the
// degenerate empty run.
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	return rootUnits(d, opts.ResolveMinCount(d), opts.MinSize)
}

// MineShard implements engine.Sharder: mines the frontier subtrees
// [lo, hi) and returns the raw task-order partial report. The
// dispatcher's above-frontier patterns and visits ride with the lo == 0
// shard.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	rep := mineRange(ctx, d, opts.ResolveMinCount(d), opts, lo, hi)
	rep.Algorithm = Name
	return rep, nil
}

// MergeShards implements engine.Sharder: frontier subtrees are
// independent, so the merge is the generic shard-order concatenation.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	return engine.MergeConcat(Name, opts, engine.Uses{MinSize: true}, parts)
}
