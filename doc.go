// Package patternfusion is a from-scratch Go implementation of
// Pattern-Fusion, the colossal frequent itemset mining algorithm of
//
//	Feida Zhu, Xifeng Yan, Jiawei Han, Philip S. Yu, Hong Cheng.
//	"Mining Colossal Frequent Patterns by Core Pattern Fusion."
//	ICDE 2007, pp. 706–715.
//
// Frequent-pattern miners that enumerate complete answer sets (Apriori,
// FP-growth, closed/maximal miners) get trapped when the number of
// mid-sized patterns explodes, even if only a handful of truly large —
// colossal — patterns exist. Pattern-Fusion instead starts from a pool of
// small frequent patterns and fuses each random seed with its "ball" of
// core patterns (subpatterns with nearly the same support set), leaping
// down the pattern lattice toward the colossal patterns in a few
// iterations. The result is an approximation of the colossal pattern set
// whose quality is measured by the pattern-set approximation error Δ of
// the paper's evaluation model.
//
// # Quick start
//
//	db, err := patternfusion.Load("transactions.dat") // FIMI format
//	if err != nil { ... }
//	rep, err := patternfusion.MineWith(ctx, "fusion", db,
//		patternfusion.Options{K: 20, MinSupport: 0.05}) // K=20 patterns, σ=5%
//	if err != nil { ... }
//	for _, p := range rep.Patterns {
//		fmt.Printf("%v support=%d\n", p.Items, p.Support())
//	}
//
// Cancellation is context-first: every miner polls ctx at its natural
// cadence and returns a partial result with Stopped=true, so deadlines
// are plain context.WithTimeout at the call site.
//
// # The unified engine
//
// Every algorithm in the repository — Pattern-Fusion, its sequence
// extension and the seven exact baselines — implements one interface
// (Engine: Name plus Mine(ctx, dataset, Options)) and registers itself by
// name. MineWith is the one way to mine; any algorithm runs the same way:
//
//	rep, err := patternfusion.MineWith(ctx, "maximal", db,
//		patternfusion.Options{MinSupport: 0.5})
//
// Options.Observer receives structured progress events (phase, iteration,
// pool size) during the run. Reports are pure functions of
// (algorithm, dataset, Options); registry-driven conformance tests pin
// prompt cancellation and byte-identical determinism for every
// registered algorithm. cmd/pfmine dispatches over the registry, and
// cmd/pfserve serves it as a concurrent HTTP job API with bounded
// workers, deadlines and progress streaming (see internal/server).
//
// # Parallelism and determinism
//
// Pattern-Fusion fuses the K seed balls of each iteration on a worker
// pool of Options.Parallelism goroutines (0 = all CPUs). Results are a
// pure function of Options.Seed: every seed slot draws from a private RNG
// stream derived from (Seed, iteration, slot) and per-slot outputs are
// merged in slot order, so the same seed yields bit-identical
// Report.Patterns for every Parallelism value — scheduling and core count never leak into the
// output. The stream-splitting contract lives in the internal rng
// package's Stream function.
//
// # Performance
//
// The fusion hot path is engineered for near-zero redundant work: support
// counts are memoized per pattern, ball membership is decided once per
// distinct support set of the pool (patterns sharing a TID-set share a
// verdict) by count-algebra pruning with an early-exit intersection
// bound, dedup maps are keyed by
// 128-bit itemset fingerprints instead of strings, and each fusion worker
// reuses scratch buffers, so a draw allocates only when it discovers a new
// super-pattern. Closures are computed vertically: an item of the first
// supporting transaction is kept iff the support set is a subset of the
// item's TID-set column, an early-exit word test instead of a rescan of
// every supporting row. A ball member that adds no items is skipped by an
// item-stamp lookup instead of a sorted merge against the growing union. All of it is
// differential-tested against the naive forms and pinned to bit-identical
// golden results; see README.md ("Performance") for recorded numbers and
// profiling instructions (scripts/bench.sh, pfmine -cpuprofile).
//
// # What else is in the box
//
// Because the paper's evaluation needs complete miners as baselines and
// ground truth, the registry also holds exact miners over the same
// Dataset type: "apriori", "fpgrowth" and "eclat" (complete frequent
// sets), "closed" (item enumeration), "closedrows" (CARPENTER-style row
// enumeration for long microarray-shaped data), "maximal" (LCM_maximal
// stand-in) and "topk" (TFP stand-in) — plus the quality evaluation model
// (Evaluate, Delta) and the paper's dataset generators (Diag, DiagPlus,
// ReplaceSim, MicroarraySim).
//
// Every experiment of the paper (Figures 6–10 and the motivating example)
// can be regenerated with cmd/pfexp or the benchmarks in bench_test.go;
// see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package patternfusion
