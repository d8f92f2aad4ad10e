package core

import (
	"context"

	"repro/internal/apriori"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// algorithm is the fusion engine adapter. knobs is nil for the registered
// algorithm, which runs DefaultKnobs of the resolved K.
type algorithm struct{ knobs *Knobs }

func init() { engine.Register(algorithm{}) }

// WithKnobs returns an unregistered fusion algorithm that runs with kn in
// place of DefaultKnobs — the entry point of the design-choice ablations.
// Everything else, options included, is the registered algorithm's.
func WithKnobs(kn Knobs) engine.Algorithm { return algorithm{knobs: &kn} }

func (algorithm) Name() string { return Name }

var uses = engine.Uses{K: true, Tau: true, InitPoolMaxSize: true, Seed: true, Pool: true, KeepPool: true}

// Mine implements engine.Algorithm: a full two-phase Pattern-Fusion run.
// Phase 1 mines the complete set of frequent patterns of at most
// InitPoolMaxSize items (default 3) with apriori's level-wise search;
// phase 2 iterates fusion until at most K (default 100) patterns remain.
// A non-nil opts.Pool skips phase 1 and warm-starts fusion from the given
// pool itemsets via reseed; opts.KeepPool returns the run's pool in
// Report.Pool for the next warm start. Cancellation is polled once per
// Apriori level in phase 1 and once per seed within each fusion
// iteration.
func (a algorithm) Mine(ctx context.Context, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	return engine.Run(Name, opts, uses, func() (*engine.Report, error) {
		p := a.resolve(d, opts)
		initPool := func(pool []*dataset.Pattern) {
			opts.Observer.Emit(engine.Event{Algorithm: Name, Phase: engine.PhaseInitPool, PoolSize: len(pool)})
		}
		if opts.Pool != nil {
			pool := reseed(d, opts.Pool, p.minCount)
			initPool(pool)
			return mineFromPool(ctx, d, pool, p, opts.KeepPool), nil
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
		return rep, nil
	})
}

// resolve fills in the defaults of the (already validated) options: K
// 100, τ 0.5, seed 1, and DefaultKnobs unless the algorithm carries its
// own.
func (a algorithm) resolve(d *dataset.Dataset, opts engine.Options) params {
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
	if a.knobs != nil {
		p.Knobs = *a.knobs
	}
	return p
}
