package fpgrowth

import "repro/internal/engine"

// Name is this algorithm's engine registry name.
const Name = "fpgrowth"

// The registered miner: the complete frequent set (optionally capped at
// Options.MaxSize items) at the resolved support threshold, mined on
// Options.Parallelism workers. FP-growth is a horizontal miner, so the
// reported patterns carry memoized support counts but nil TID sets. Its
// task units are the root header items, or a single unit for the
// single-path degenerate root; the conditional trees are independent, so
// the merge is the task-order concatenation.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{MaxSize: true},
		Split: split,
	})
}
