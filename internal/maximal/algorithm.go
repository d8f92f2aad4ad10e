package maximal

import (
	"repro/internal/dataset"
	"repro/internal/engine"
)

// Name is this algorithm's engine registry name.
const Name = "maximal"

// The registered miner: the complete maximal frequent set at the resolved
// support threshold, mined on Options.Parallelism workers. Its task units
// are the root's surviving extensions — none when the root node handles
// the run outright. Task-local MFIs only prune within their own subtree,
// so the merge concatenates the raw candidate streams in task order —
// restoring the exact stream a single pass produces — and then applies
// the sequential earliest-wins subsumption filter once, globally, which
// removes the cross-subtree subsumptions a shared MFI would have caught.
func init() {
	engine.Register(engine.Ranged{
		Algo: Name,
		Units: func(d *dataset.Dataset, opts engine.Options) int {
			return rootUnits(d, opts.ResolveMinCount(d))
		},
		Range: mineRange,
		Merge: func(d *dataset.Dataset, _ engine.Options, parts []*engine.Report) *engine.Report {
			rep := engine.Concat(parts)
			rep.Patterns = filterSubsumed(d, rep.Patterns)
			return rep
		},
	})
}
