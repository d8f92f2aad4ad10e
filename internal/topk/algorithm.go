package topk

import (
	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "topk"

// The registered miner: the top Options.K most frequent closed patterns
// of at least Options.MinSize items, mined on Options.Parallelism
// workers. Options.MinCount / MinSupport act as TFP's optional support
// floor. Its task units are the root-closure candidate extensions,
// gathered once per plan by the root node — none for runs the root
// handles outright. The merge pools the per-range top-Ks —
// distinct closed patterns, so the better() order is strict across the
// union — and re-selects the global top-K.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{K: true, MinSize: true},
		Split: split,
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
