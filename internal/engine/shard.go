package engine

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Sharder is the optional distribution interface a miner implements when
// its search decomposes into the same static task blocks the Tasks
// scheduler seeds its worker deques with. A shard is a contiguous range
// [lo, hi) of those task units; because the units and their order are a
// pure function of (dataset, options), two processes that agree on the
// dataset bytes agree on the decomposition, and a coordinator can lease
// ranges to remote workers and merge the partial reports back into the
// byte-identical single-node answer.
//
// The contract, which the distributed conformance tests pin:
//
//   - ShardUnits(d, opts) returns the task-unit count N. Zero means the
//     run is degenerate (empty class, single-path tree, root-handled) and
//     must be executed whole via Mine rather than sharded.
//   - MineShard(ctx, d, opts, lo, hi) mines exactly the units in [lo, hi)
//     and returns a RAW partial report: Patterns in the miner's internal
//     task order (NOT SortPatterns order), no Warnings, Algorithm stamped.
//     Any root/dispatcher work outside the task decomposition is
//     attributed to the lo == 0 shard only, so that summing shard
//     counters reproduces the single-node counters.
//   - MergeShards(d, opts, parts) merges partial reports given in shard
//     order (parts[i] covers an earlier range than parts[i+1]) into the
//     final Report, applying the same Run bracketing (Warnings, sorting)
//     a single-node Mine would. len(parts) ≥ 1; the concatenation of the
//     parts' ranges must cover [0, N) exactly.
//
// Mine(ctx, d, opts) remains the single-node entry point and must equal
// MergeShards(d, opts, [MineShard(0, N)]).
type Sharder interface {
	Algorithm
	// ShardUnits returns the number of deterministic task units the run
	// decomposes into, or 0 if the run cannot be sharded (degenerate
	// shapes handled entirely at the root).
	ShardUnits(d *dataset.Dataset, opts Options) int
	// MineShard mines task units [lo, hi) and returns the raw partial
	// report (unsorted, unbracketed).
	MineShard(ctx context.Context, d *dataset.Dataset, opts Options, lo, hi int) (*Report, error)
	// MergeShards merges raw partial reports, given in shard order, into
	// the final bracketed Report.
	MergeShards(d *dataset.Dataset, opts Options, parts []*Report) (*Report, error)
}

// AsSharder returns the Sharder view of a if it implements one.
func AsSharder(a Algorithm) (Sharder, bool) {
	s, ok := a.(Sharder)
	return s, ok
}

// ValidateShard checks the uniform MineShard preconditions shared by
// every Sharder: in-range options (Options.Validate, as Run applies) and
// a non-empty range inside [0, units). Callers recompute units from
// (d, opts), so a worker whose rebuilt dataset decomposes differently
// than the coordinator planned fails loudly here instead of mining the
// wrong subtrees.
func ValidateShard(name string, opts Options, lo, hi, units int) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi > units || lo >= hi {
		return fmt.Errorf("engine: %s shard [%d,%d) invalid for %d task units", name, lo, hi, units)
	}
	return nil
}

// MergeConcat is the generic shard merge for miners whose per-task
// results are independent: it concatenates Patterns in shard order, sums
// Visited, and ORs Stopped, then brackets the result with Run under the
// given name and uses. It is exactly the merge the in-process schedulers
// perform in task order, lifted to shard granularity.
func MergeConcat(name string, opts Options, uses Uses, parts []*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: MergeShards(%s) needs at least one part", name)
	}
	return Run(name, opts, uses, func() (*Report, error) {
		res := &Report{}
		for _, p := range parts {
			res.Patterns = append(res.Patterns, p.Patterns...)
			res.Visited += p.Visited
			res.Stopped = res.Stopped || p.Stopped
		}
		return res, nil
	})
}
