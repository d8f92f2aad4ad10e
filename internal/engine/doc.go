// Package engine defines the uniform mining interface every algorithm in
// this repository implements, and the process-wide registry that makes
// them addressable by name.
//
// The repository ships nine miners — Pattern-Fusion (the paper's
// contribution), its sequence extension seqfusion (the paper's Section 8
// direction), and the seven exact baselines its evaluation compares
// against (Section 6). Before this package each had its own entry
// signature, its own ad-hoc cancellation hook, and a hand-rolled dispatch
// switch in every caller. The engine collapses that to one contract:
//
//	type Algorithm interface {
//		Name() string
//		Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Report, error)
//		Plan(ctx context.Context, d *dataset.Dataset, opts Options) (*Plan, error)
//	}
//
// Cancellation is context-first: every miner polls ctx at its natural
// cadence (once per fusion seed, per Apriori level, per DFS node) and
// returns a partial Report with Stopped=true. Deadlines are therefore
// plain context.WithTimeout at the call site. Progress is observable
// through Options.Observer, a synchronous callback receiving structured
// Events (phase, iteration, pool size) at the same cadence.
//
// # Registry
//
// Miner packages register a Ranged adapter from init, keyed by the
// historical CLI names: "fusion" (core), "apriori", "fpgrowth", "eclat",
// "closed" (charm), "closedrows" (carpenter), "maximal", "topk",
// "seqfusion".
// Importing repro/internal/engine/all (blank import) pulls in all nine;
// Get, Names and All look them up. cmd/pfmine iterates the registry for
// dispatch and help text, and cmd/pfserve exposes every registered
// algorithm over HTTP, so a new miner becomes reachable everywhere by
// registering. The registered adapter is each miner package's only
// mining entry point: a package keeps the raw search the adapter wraps
// unexported, and every caller — experiments, examples, tests — mines
// through Get(name).Mine.
//
// # Options
//
// Options is the one parameter set of every algorithm, and
// Options.Validate its one range check: Run, every Algorithm's Plan and
// the job server all apply it, so an out-of-range value is rejected the same
// way on every surface before any mining starts.
//
// # Parallelism
//
// Every registered algorithm honors Options.Parallelism (0 = all CPUs)
// with one recipe: a miner decomposes its search into static,
// independent task units — first-level equivalence classes (eclat,
// closed, maximal, topk), conditional-tree roots (fpgrowth), per-level
// candidate-range chunks (apriori), row-enumeration subtrees
// (closedrows), seed slots (fusion, seqfusion) — runs them on Tasks,
// whose workers claim the next unit from one shared counter, and merges
// the per-task reports in task order with Concat. Ranged packages the
// recipe as a miner's registered Algorithm: the miner's split function
// does the root work once and returns a Plan, and the engine's one range
// loop mines and merges it, so the same units, loop and merge serve the
// distributed coordinator's shards (Lease, MineShard). Fusion's iterations and apriori's
// levels are globally coupled, so their plans are one unit — the whole
// run — and they parallelize inside it.
// Cross-worker progress aggregates through a Meter, so Observer events
// stay serialized.
//
// # Determinism
//
// A Report is a pure function of (algorithm, dataset, Options): no
// timestamps, no scheduling artifacts. The fusion engine's founding
// bit-identical-across-Parallelism guarantee now extends to all nine
// algorithms: each task's output is a pure function of the task, outputs
// merge in canonical task order (never completion order), and any
// cross-task reconciliation — maximal's subsumption filter, topk's
// total-order top-k selection — is a deterministic sequential pass over
// that merged stream. The registry conformance tests pin byte-identical
// reports for Parallelism ∈ {1, 2, 8} on every registered algorithm; see
// ARCHITECTURE.md for the full determinism contract.
package engine
