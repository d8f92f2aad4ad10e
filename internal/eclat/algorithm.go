package eclat

import "repro/internal/engine"

// Name is this algorithm's engine registry name.
const Name = "eclat"

// The registered miner: the complete frequent set (optionally capped at
// Options.MaxSize items) at the resolved support threshold, mined on
// Options.Parallelism workers. Its task units, in process and across
// shards, are the frequent single items (the first-level
// equivalence-class members); their subtrees are independent, so the
// merge is the task-order concatenation.
func init() {
	engine.Register(engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{MaxSize: true},
		Split: split,
	})
}
