package apriori

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "apriori"

type algorithm struct{}

func init() { engine.Register(algorithm{}) }

func (algorithm) Name() string { return Name }

// Mine implements engine.Algorithm: the complete frequent set (optionally
// capped at Options.MaxSize items) at the resolved support threshold,
// mined on Options.Parallelism workers.
func (algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, engine.Uses{MaxSize: true}, func() (*engine.Report, error) {
		return search(ctx, d, opts.ResolveMinCount(d), opts.MaxSize, opts.Parallelism, opts.Observer), nil
	})
}
