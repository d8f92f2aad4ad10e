// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Every randomized component of Pattern-Fusion (seed drawing, fusion
// agglomeration order, weighted sampling) and every data generator takes an
// explicit *rng.RNG so that experiments are exactly reproducible from a
// single integer seed. The generator is xoshiro256**, seeded via SplitMix64,
// the construction recommended by its authors for initializing the state.
//
// # Stream splitting
//
// Parallel consumers must not share one sequential RNG: the interleaving of
// draws would depend on goroutine scheduling and destroy reproducibility.
// Stream solves this by deriving a child generator purely from a root seed
// and a label path — Stream(root, labels...) is a pure function of its
// arguments, consumes no state from any other generator, and two calls with
// the same (root, labels) always return identical streams regardless of
// which goroutine makes them or in what order. Distinct label paths yield
// statistically independent streams (each label is folded through the
// SplitMix64 finalizer, so related paths such as (i, j) and (j, i) do not
// collide). Callers address work items hierarchically, e.g.
// Stream(seed, iteration, workItem), and get scheduling-independent
// determinism for free — this is what lets the fusion engine hand seed
// slots to a parallel scheduler and still promise bit-identical results
// for every worker count.
package rng
