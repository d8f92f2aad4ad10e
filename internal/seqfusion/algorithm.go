package seqfusion

import "repro/internal/engine"

// algorithm is the registered miner: K independent seed-slot trajectories
// over the static 1-/2-gram pool, one task unit per seed slot (so the unit
// count is the resolved K, a pure function of Options alone), merged in
// slot order with the first slot winning a duplicate. It reads K
// (seed-slot count = max patterns), Tau (core ratio), Seed (RNG root) and
// MinSize (minimum reported sequence length).
type algorithm struct{ engine.Ranged }

func init() {
	engine.Register(algorithm{engine.Ranged{
		Algo:  Name,
		Uses:  engine.Uses{K: true, Tau: true, Seed: true, MinSize: true},
		Split: split,
	}})
}

// OrderedPatterns reports that this miner's pattern Items are ordered
// sequences, not canonical itemsets. Consumers that re-canonicalize
// pattern items (the ingest symbol remapper) check for this marker and
// preserve item order instead.
func (algorithm) OrderedPatterns() bool { return true }
