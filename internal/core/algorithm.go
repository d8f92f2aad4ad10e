package core

import (
	"context"

	"repro/internal/apriori"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// The registered miner runs DefaultKnobs of the resolved K.
func init() { engine.Register(ranged(nil)) }

// WithKnobs returns an unregistered fusion algorithm that runs with kn in
// place of DefaultKnobs — the entry point of the design-choice ablations.
// Everything else, options included, is the registered algorithm's.
func WithKnobs(kn Knobs) engine.Algorithm { return ranged(&kn) }

var uses = engine.Uses{K: true, Tau: true, InitPoolMaxSize: true, Seed: true, Pool: true, KeepPool: true}

// ranged is the fusion miner running kn, or DefaultKnobs of the resolved
// K when kn is nil. Every fusion iteration draws its seeds from the whole
// pool, so the run does not split into static units: its plan does no
// root work and mines the whole run as its one unit.
func ranged(kn *Knobs) engine.Ranged {
	return engine.Ranged{Algo: Name, Uses: uses, Split: func(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
		return &engine.Plan{Root: &engine.Report{}, Units: 1, Task: func(_, _ int) *engine.Report {
			return run(ctx, d, opts, resolve(d, opts, kn))
		}}
	}}
}

// run is a full two-phase Pattern-Fusion run. Phase 1 mines the
// complete set of frequent patterns of at most InitPoolMaxSize items
// (default 3) with apriori's level-wise search; phase 2 iterates fusion
// until at most K (default 100) patterns remain. A non-nil opts.Pool
// skips phase 1 and warm-starts fusion from the given pool itemsets via
// reseed; opts.KeepPool returns the run's pool in Report.Pool for the
// next warm start. Cancellation is polled once per Apriori level in
// phase 1 and once per seed within each fusion iteration.
func run(ctx context.Context, d *dataset.Dataset, opts engine.Options, p params) *engine.Report {
	initPool := func(pool []*dataset.Pattern) {
		opts.Observer.Emit(engine.Event{Algorithm: Name, Phase: engine.PhaseInitPool, PoolSize: len(pool)})
	}
	if opts.Pool != nil {
		pool := reseed(d, opts.Pool, p.minCount)
		initPool(pool)
		return mineFromPool(ctx, d, pool, p, opts.KeepPool)
	}
	maxSize := opts.InitPoolMaxSize
	if maxSize == 0 {
		maxSize = defaultInitPoolMaxSize
	}
	pool, stopped := apriori.InitialPool(ctx, d, p.minCount, maxSize, opts.Parallelism)
	initPool(pool)
	rep := mineFromPool(ctx, d, pool, p, opts.KeepPool)
	// A run canceled during phase 1 is partial even when the truncated
	// pool is empty and no fusion step ever observes the cancellation.
	rep.Stopped = rep.Stopped || stopped
	return rep
}

// resolve fills in the defaults of the (already validated) options: K
// 100, τ 0.5, seed 1, and DefaultKnobs unless kn is set.
func resolve(d *dataset.Dataset, opts engine.Options, kn *Knobs) params {
	p := params{
		k:        opts.K,
		tau:      opts.Tau,
		minCount: opts.ResolveMinCount(d),
		seed:     opts.Seed,
		workers:  engine.Workers(opts.Parallelism),
		obs:      opts.Observer,
	}
	if p.k == 0 {
		p.k = 100
	}
	if p.tau == 0 {
		p.tau = 0.5
	}
	if p.seed == 0 {
		p.seed = 1
	}
	p.Knobs = DefaultKnobs(p.k)
	if kn != nil {
		p.Knobs = *kn
	}
	return p
}
