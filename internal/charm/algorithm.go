package charm

import "repro/internal/engine"

// Name is this algorithm's engine registry name ("closed": the complete
// closed frequent set, mined by item enumeration).
const Name = "closed"

// The registered miner: the complete closed frequent set (optionally only
// itemsets of at least Options.MinSize items) at the resolved support
// threshold, mined on Options.Parallelism workers. Its task units are the
// candidate extension items of the root closure — none for the
// degenerate empty run (support threshold above the row count); ppc-ext
// subtrees are independent, so the merge is the task-order
// concatenation.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{MinSize: true},
		Split: split,
	})
}
