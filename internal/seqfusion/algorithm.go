package seqfusion

import "repro/internal/engine"

// The registered miner runs K independent seed-slot trajectories over the
// static 1-/2-gram pool, one task unit per seed slot (so the unit count is
// the resolved K, a pure function of Options alone), merged in slot order
// with the first slot winning a duplicate. It reads K (seed-slot count =
// max patterns), Tau (core ratio), Seed (RNG root) and MinSize (minimum
// reported sequence length); its patterns are event sequences (Ordered).
func init() {
	engine.Register(engine.Ranged{
		Algo:    Name,
		Uses:    engine.Uses{K: true, Tau: true, Seed: true, MinSize: true},
		Split:   split,
		Ordered: true,
	})
}
