package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Algorithm is the uniform interface every miner in this repository
// implements: a name for registry lookup, a single context-first entry
// point and the run's task-unit plan (see Ranged). Implementations must
// honor ctx cancellation promptly (at their natural polling cadence — per
// fusion seed, per Apriori level, per DFS node), must be deterministic
// given (d, opts), and must return a partial Report with Stopped=true
// rather than an error when canceled mid-run.
type Algorithm interface {
	// Name returns the registry name (e.g. "fusion", "apriori").
	Name() string
	// Mine runs the algorithm on d under opts. It returns an error only
	// for invalid options; cancellation yields a partial Report with
	// Stopped=true and a nil error.
	Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Report, error)
	// Plan validates opts, does the root work and returns the run's
	// decomposition into static task units. A distributed coordinator
	// runs the plan through Lease, Mine's own range loop, leasing
	// contiguous shards of units to workers that mine them with
	// Plan.MineShard, and gets the byte-identical Mine answer. The units
	// and their order are a pure function of (d, opts), so two processes
	// that agree on the dataset bytes agree on the decomposition.
	// Units = 0 means the root answered the run; a plan whose Root is
	// Stopped was canceled during the root work, and its Units is not
	// the run's decomposition.
	Plan(ctx context.Context, d *dataset.Dataset, opts Options) (*Plan, error)
}

// Options is the shared parameter set of all registered algorithms. Each
// algorithm reads the fields that apply to it; zero values select
// per-algorithm defaults. The field ↔ algorithm mapping:
//
//	MinCount / MinSupport  all:        support threshold (MinCount wins)
//	K                      fusion:     max patterns (default 100)
//	                       seqfusion:  seed slots = max patterns (default 100)
//	                       topk:       k (default 100)
//	Tau                    fusion, seqfusion: core ratio τ (default 0.5)
//	InitPoolMaxSize        fusion:     phase-1 pool max pattern size (default 3)
//	MinSize                closed, closedrows, topk: minimum pattern size
//	                       seqfusion:  minimum sequence length
//	MaxSize                apriori, eclat, fpgrowth: maximum pattern size
//	Seed                   fusion, seqfusion: RNG seed (default 1)
//	Pool                   fusion:     warm-start pool itemsets (skips phase 1)
//	KeepPool               fusion:     return the pool in Report.Pool
//	Parallelism            all:        worker goroutines (0 = all CPUs)
//	Observer               all:        progress-event callback
//
// Setting a field the selected algorithm does not read is not an error —
// the same Options value can drive every algorithm — but it is recorded:
// the run's Report.Warnings lists each ignored non-zero field, so callers
// (and the pfmine / pfserve surfaces) can tell a mis-aimed option from an
// applied one. Out-of-range values are errors for every algorithm; see
// Validate.
//
// The json tags are the option names of pfserve's job and monitor
// specs. Pool has no omitempty: an empty warm start encodes as [] and a
// nil one as null, so both survive a persisted or leased spec.
type Options struct {
	// MinCount is the absolute minimum support count. If zero, MinSupport
	// is used instead.
	MinCount int `json:"min_count,omitempty"`
	// MinSupport is the relative minimum support σ ∈ [0,1], used only when
	// MinCount is zero.
	MinSupport float64 `json:"min_support,omitempty"`
	// K is the result-size budget: fusion's K and topk's k.
	K int `json:"k,omitempty"`
	// Tau is fusion's core ratio τ ∈ (0,1]; zero selects the default 0.5.
	Tau float64 `json:"tau,omitempty"`
	// InitPoolMaxSize bounds fusion's phase-1 pattern size; zero selects 3.
	InitPoolMaxSize int `json:"init_pool_max_size,omitempty"`
	// MinSize is the minimum reported pattern size (closed, closedrows,
	// topk).
	MinSize int `json:"min_size,omitempty"`
	// MaxSize is the maximum reported pattern size (apriori, eclat,
	// fpgrowth); zero means unbounded.
	MaxSize int `json:"max_size,omitempty"`
	// Seed seeds fusion's deterministic RNG; zero selects 1 so that the
	// zero Options value is still a valid, reproducible configuration.
	Seed uint64 `json:"seed,omitempty"`
	// Pool, when non-nil, warm-starts fusion from these phase-1 pool
	// itemsets instead of mining the initial pool: each itemset is
	// re-materialized against the current dataset (supports recomputed),
	// entries below the support threshold or outside the item universe
	// are dropped in place, and fusion proceeds straight to phase 2. With an
	// unchanged dataset and options the warm report is byte-identical
	// (ReportHash) to a cold run whose phase-1 pool it was; after appends
	// it is the incremental approximation the pool-containment
	// conformance test pins. An empty non-nil pool is a valid warm start
	// that yields no patterns.
	Pool [][]int `json:"pool"`
	// KeepPool asks fusion to return its phase-1 pool itemsets (cold
	// runs: the mined initial pool; warm runs: the re-seeded pool) in
	// Report.Pool, in pool order, for a later incremental warm start.
	KeepPool bool `json:"keep_pool,omitempty"`
	// Parallelism is the worker-goroutine count every algorithm mines
	// with; zero means all CPUs and negative values are rejected.
	// Reports are bit-identical for every value: each miner decomposes
	// its search into deterministic task
	// units (see the Tasks scheduler) and merges per-task results in
	// canonical task order, so scheduling never leaks into the result.
	Parallelism int `json:"parallelism,omitempty"`
	// Observer, if non-nil, receives progress events. Calls are
	// serialized — never concurrent — but for Parallelism != 1 they may
	// come from worker goroutines (see Meter); the Observer must not
	// block and must not assume a single calling goroutine identity.
	Observer Observer `json:"-"`
}

// Validate is the one range check of Options, shared by every algorithm:
// Run, every Algorithm's Plan and the job server's spec validation call
// it, so a bad value fails the same way on every surface. It rejects a negative
// MinCount, K, InitPoolMaxSize, MinSize, MaxSize or Parallelism, a
// MinSupport that is NaN or outside [0,1], and a Tau that is NaN or
// outside {0} ∪ (0,1]. Zero always means "use the default"; no value is
// silently rewritten.
func (o Options) Validate() error {
	if o.MinCount < 0 {
		return fmt.Errorf("engine: MinCount must be >= 0, got %d", o.MinCount)
	}
	if math.IsNaN(o.MinSupport) || o.MinSupport < 0 || o.MinSupport > 1 {
		return fmt.Errorf("engine: MinSupport must be in [0,1], got %v", o.MinSupport)
	}
	if math.IsNaN(o.Tau) || o.Tau < 0 || o.Tau > 1 {
		return fmt.Errorf("engine: Tau must be 0 (default) or in (0,1], got %v", o.Tau)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"K", o.K}, {"InitPoolMaxSize", o.InitPoolMaxSize}, {"MinSize", o.MinSize},
		{"MaxSize", o.MaxSize}, {"Parallelism", o.Parallelism},
	} {
		if f.v < 0 {
			return fmt.Errorf("engine: %s must be >= 0, got %d", f.name, f.v)
		}
	}
	return nil
}

// ResolveMinCount resolves the configured support threshold against d:
// MinCount if set, otherwise ceil(MinSupport·|D|), never below 1.
func (o Options) ResolveMinCount(d *dataset.Dataset) int {
	if o.MinCount > 0 {
		return o.MinCount
	}
	if mc := d.MinCount(o.MinSupport); mc > 1 {
		return mc
	}
	return 1
}

// Report is the uniform outcome of an Algorithm run. Fields not meaningful
// for an algorithm are zero. A Report is a pure function of
// (algorithm, dataset, Options) — it carries no timestamps or other
// nondeterminism, which is what the byte-identical determinism conformance
// test pins.
type Report struct {
	// Algorithm is the registry name of the algorithm that produced this
	// report.
	Algorithm string
	// Patterns is the mined pattern set, sorted by decreasing size (ties
	// broken lexicographically by itemset) — see dataset.SortPatterns.
	// Patterns mined by horizontal algorithms (fpgrowth) carry memoized
	// support counts but nil TID sets.
	Patterns []*dataset.Pattern
	// InitPoolSize is fusion's phase-1 pool size.
	InitPoolSize int
	// Iterations counts fusion iterations or Apriori levels.
	Iterations int
	// Visited counts DFS nodes explored (charm, carpenter, maximal, topk).
	Visited int
	// Stopped is true if the run was canceled before completion; Patterns
	// is then a partial result.
	Stopped bool
	// Warnings lists the non-zero Options fields the algorithm ignored
	// (e.g. K on a non-topk miner), in Options field-declaration order.
	// It is filled by Run from the adapter's Uses declaration and is a
	// pure function of (algorithm, Options), preserving Report
	// determinism.
	Warnings []string
	// Quality, when non-nil, is the paper's Section 5 approximation-error
	// estimate of this result: Δ of Patterns against the algorithm's own
	// candidate pool (seqfusion computes it against its initial pool).
	// Like every other Report field it is a pure function of
	// (algorithm, dataset, Options); algorithms that do not estimate
	// quality leave it nil, which the canonical encoding omits, so
	// their report hashes are unchanged.
	Quality *Quality
	// Pool is the run's phase-1 pool itemsets in pool order, present only
	// when Options.KeepPool was set on a fusion run. It is the warm-start
	// seed for Options.Pool. Like TID sets it is an acceleration artifact,
	// not part of the observable answer: the canonical encoding omits
	// it, so EncodeReport/ReportHash are unaffected, and the job server
	// neither keeps nor persists it.
	Pool [][]int `json:"-"`
}

// Quality is a result-set approximation-error estimate (Definitions 9
// and 10): how well the reported patterns summarize the candidate set
// they were fused from. Smaller is better; 0 means every candidate is
// covered exactly.
type Quality struct {
	// Delta is the approximation error Δ(A_P^Q).
	Delta float64 `json:"delta"`
}

// Uses declares which of the algorithm-specific Options fields an
// algorithm reads; Run turns the complement into Report.Warnings. The
// universally applicable fields (MinCount, MinSupport, Parallelism,
// Observer) have no flag here — every algorithm reads them.
type Uses struct {
	K               bool
	Tau             bool
	InitPoolMaxSize bool
	MinSize         bool
	MaxSize         bool
	Seed            bool
	Pool            bool
	KeepPool        bool
}

// ignoredWarnings renders one warning per non-zero Options field that u
// does not declare, in field-declaration order (deterministic).
func (o Options) ignoredWarnings(name string, u Uses) []string {
	var out []string
	check := func(field string, set, used bool) {
		if set && !used {
			out = append(out, fmt.Sprintf("option %s is ignored by algorithm %q", field, name))
		}
	}
	check("K", o.K != 0, u.K)
	check("Tau", o.Tau != 0, u.Tau)
	check("InitPoolMaxSize", o.InitPoolMaxSize != 0, u.InitPoolMaxSize)
	check("MinSize", o.MinSize != 0, u.MinSize)
	check("MaxSize", o.MaxSize != 0, u.MaxSize)
	check("Seed", o.Seed != 0, u.Seed)
	check("Pool", o.Pool != nil, u.Pool)
	check("KeepPool", o.KeepPool, u.KeepPool)
	return out
}

// Phase labels the stage of a run an Event reports on.
type Phase string

const (
	// PhaseStart is emitted once before mining begins.
	PhaseStart Phase = "start"
	// PhaseInitPool is emitted by fusion after phase 1 (the initial pool).
	PhaseInitPool Phase = "init-pool"
	// PhaseIteration is a periodic progress tick: one fusion iteration,
	// one Apriori level, or ProgressStride DFS nodes.
	PhaseIteration Phase = "iteration"
	// PhaseDone is emitted once by Run after mining completes (also
	// when canceled), so every Mine and every coordinated job (Lease)
	// ends with exactly one; a shard lease (MineShard) emits neither
	// start nor done.
	PhaseDone Phase = "done"
	// PhaseShardLeased is emitted by a distributed coordinator when a
	// task-block shard is leased to a peer worker.
	PhaseShardLeased Phase = "shard-leased"
	// PhaseShardDone is emitted by a distributed coordinator when a
	// leased shard's partial report has been received and accepted.
	PhaseShardDone Phase = "shard-done"
	// PhaseShardRetry is emitted by a distributed coordinator when a
	// shard lease failed and the shard is re-queued for another peer.
	PhaseShardRetry Phase = "shard-retry"
)

// Event is one structured progress observation. Events are emitted
// synchronously from the mining goroutine at the same cadence cancellation
// is polled, so an Observer never races the miner.
type Event struct {
	// Algorithm is the emitting algorithm's registry name.
	Algorithm string `json:"algorithm"`
	// Phase labels the stage; see the Phase constants.
	Phase Phase `json:"phase"`
	// Iteration is the fusion iteration / Apriori level / DFS-node count
	// reaching this event.
	Iteration int `json:"iteration"`
	// PoolSize is the current candidate-pool or result-set size.
	PoolSize int `json:"pool_size"`
	// Pool, when non-nil, is the live candidate pool behind PoolSize
	// (fusion iterations only). Observers must not modify or retain it;
	// it is omitted from JSON encodings.
	Pool []*dataset.Pattern `json:"-"`
	// Shard, when non-empty, identifies the task-block shard a
	// distributed event concerns, rendered "i/n" (1-based).
	Shard string `json:"shard,omitempty"`
	// Peer, when non-empty, is the base URL of the worker the shard
	// event originated from or was leased to.
	Peer string `json:"peer,omitempty"`
}

// Observer receives progress events. A nil Observer is always safe to
// Emit on.
type Observer func(Event)

// Emit calls o with e if o is non-nil.
func (o Observer) Emit(e Event) {
	if o != nil {
		o(e)
	}
}

// Run brackets a miner invocation with the uniform engine contract so it
// lives in one place instead of nine adapters: option validation and a
// PhaseStart event before; then Algorithm stamping, ignored-option Warnings (from the
// adapter's Uses declaration), canonical pattern sorting (largest first)
// and a PhaseDone event — carrying the iteration count, or the
// visited-node count for the DFS miners — after. mine returns the raw
// report; errors pass through unbracketed.
func Run(name string, opts Options, uses Uses, mine func() (*Report, error)) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	obs := opts.Observer
	obs.Emit(Event{Algorithm: name, Phase: PhaseStart})
	rep, err := mine()
	if err != nil {
		return nil, err
	}
	rep.Algorithm = name
	rep.Warnings = opts.ignoredWarnings(name, uses)
	dataset.SortPatterns(rep.Patterns)
	done := Event{Algorithm: name, Phase: PhaseDone, Iteration: rep.Iterations, PoolSize: len(rep.Patterns)}
	if done.Iteration == 0 {
		done.Iteration = rep.Visited
	}
	obs.Emit(done)
	return rep, nil
}

// ProgressStride is the DFS-node cadence at which the depth-first miners
// (eclat, fpgrowth, charm, carpenter, maximal, topk) emit PhaseIteration
// events: one event every ProgressStride visited nodes. Cancellation is
// still polled at every node.
const ProgressStride = 4096
