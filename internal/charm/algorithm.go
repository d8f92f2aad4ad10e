package charm

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name ("closed": the complete
// closed frequent set, mined by item enumeration).
const Name = "closed"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the complete closed frequent set
// (optionally only itemsets of at least Options.MinSize items) at the
// resolved support threshold, mined on Options.Parallelism workers.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{MinSize: true}, func() (*engine.Report, error) {
		return mineRange(ctx, d, opts.ResolveMinCount(d), opts, 0, -1), nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per candidate
// extension item of the root closure, or 0 for the degenerate empty run
// (support threshold above the row count).
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	if d.Size() < opts.ResolveMinCount(d) {
		return 0
	}
	return d.NumItems()
}

// MineShard implements engine.Sharder: mines the ppc-ext subtrees of
// root extension items [lo, hi) and returns the raw task-order partial
// report. The root node's visit and emission ride with the lo == 0
// shard.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	rep := mineRange(ctx, d, opts.ResolveMinCount(d), opts, lo, hi)
	rep.Algorithm = Name
	return rep, nil
}

// MergeShards implements engine.Sharder: ppc-ext subtrees are
// independent, so the merge is the generic shard-order concatenation.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	return engine.MergeConcat(Name, opts, engine.Uses{MinSize: true}, parts)
}
