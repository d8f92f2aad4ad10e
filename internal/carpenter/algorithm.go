package carpenter

import "repro/internal/engine"

// Name is this algorithm's engine registry name ("closedrows": closed
// frequent sets by CARPENTER-style row enumeration).
const Name = "closedrows"

// The registered miner: the closed frequent sets of at least
// Options.MinSize items at the resolved support threshold, mined by row
// enumeration on Options.Parallelism workers — the method of choice for
// microarray-shaped data. Its task units are the frontier subtrees of
// the deterministic dispatcher expansion — none for the degenerate empty
// run; the subtrees are independent, so the merge is the task-order
// concatenation.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{MinSize: true},
		Split: split,
	})
}
