package maximal

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "maximal"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the complete maximal frequent set at
// the resolved support threshold, mined on Options.Parallelism workers.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{}, func() (*engine.Report, error) {
		rep, candidates, handled := mineRange(ctx, d, opts.ResolveMinCount(d), opts, 0, -1)
		if !handled {
			// Task-local MFIs only prune within their own subtree; the
			// earliest-wins filter removes the cross-subtree subsumptions a
			// shared MFI would have caught, restoring the sequential answer
			// exactly.
			rep.Patterns = filterSubsumed(d, candidates)
		}
		return rep, nil
	})
}

// ShardUnits implements engine.Sharder: one task unit per surviving
// root extension, or 0 when the root node handles the run outright.
func (algorithm) ShardUnits(d *dataset.Dataset, opts engine.Options) int {
	return rootUnits(d, opts.ResolveMinCount(d))
}

// MineShard implements engine.Sharder: mines the subtrees of root
// extensions [lo, hi) and returns the raw task-order candidate stream —
// deliberately NOT subsumption-filtered, because the earliest-wins
// filter must replay over the full cross-shard stream to reproduce the
// shared-MFI answer. The root node's visit rides with the lo == 0 shard.
func (a algorithm) MineShard(ctx context.Context, d *dataset.Dataset, opts engine.Options, lo, hi int) (*engine.Report, error) {
	if err := engine.ValidateShard(Name, opts, lo, hi, a.ShardUnits(d, opts)); err != nil {
		return nil, err
	}
	rep, candidates, _ := mineRange(ctx, d, opts.ResolveMinCount(d), opts, lo, hi)
	rep.Algorithm = Name
	rep.Patterns = candidates
	return rep, nil
}

// MergeShards implements engine.Sharder: concatenate the raw candidate
// streams in shard order — restoring the exact task-order stream a
// single-node run produces — then apply the sequential earliest-wins
// subsumption filter once, globally.
func (algorithm) MergeShards(d *dataset.Dataset, opts engine.Options, parts []*engine.Report) (*engine.Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("maximal: MergeShards needs at least one part")
	}
	return engine.Run(Name, opts, engine.Uses{}, func() (*engine.Report, error) {
		res := &engine.Report{}
		var candidates []*dataset.Pattern
		for _, p := range parts {
			candidates = append(candidates, p.Patterns...)
			res.Visited += p.Visited
			res.Stopped = res.Stopped || p.Stopped
		}
		res.Patterns = filterSubsumed(d, candidates)
		return res, nil
	})
}
