package apriori

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "apriori"

// The registered miner: the complete frequent set (optionally capped at
// Options.MaxSize items) at the resolved support threshold, mined on
// Options.Parallelism workers. Each level's join reads the whole previous
// level, so the run does not split into static units: its plan does no
// root work and mines the whole run as its one unit.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{MaxSize: true},
		Split: split,
	})
}

func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	return &engine.Plan{Root: &engine.Report{}, Units: 1, Task: func(_, _ int) *engine.Report {
		return search(ctx, d, opts.ResolveMinCount(d), opts.MaxSize, opts.Parallelism, opts.Observer)
	}}
}
