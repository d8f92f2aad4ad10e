package maximal

import "repro/internal/engine"

// Name is this algorithm's engine registry name.
const Name = "maximal"

// The registered miner: the complete maximal frequent set at the resolved
// support threshold, mined on Options.Parallelism workers. Its task units
// are the root's surviving extensions — none when the root node handles
// the run outright. Task-local MFIs only prune within their own subtree,
// so the merge concatenates the candidate streams in task order —
// restoring the exact stream a single pass produces — and then applies
// the sequential earliest-wins subsumption filter, which removes the
// cross-subtree subsumptions a shared MFI would have caught. The filter
// composes, so a shard ships its filtered stream and the coordinator
// filters the shards' concatenation once more.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Split: split,
	})
}
