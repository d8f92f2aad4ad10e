package engine

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Sharder is the optional distribution interface a miner implements when
// its search decomposes into the same static task units the Tasks
// scheduler runs in process (Ranged implements it). A shard is a
// contiguous range [lo, hi) of those task units; because the units and
// their order are a pure function of (dataset, options), two processes
// that agree on the dataset bytes agree on the decomposition, and a
// coordinator can lease ranges to remote workers and merge the partial
// reports back into the byte-identical single-node answer.
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

// Concat is the one task-order merge: it concatenates the parts'
// Patterns in order, sums Visited and ORs Stopped. A nil part is a task
// abandoned after cancellation, so it marks the result Stopped. The same
// function merges a miner's per-task reports in process and its shard
// reports on a coordinator; a single non-nil part comes back as is.
func Concat(parts []*Report) *Report {
	if len(parts) == 1 && parts[0] != nil {
		return parts[0]
	}
	res := &Report{}
	for _, p := range parts {
		if p == nil {
			res.Stopped = true
			continue
		}
		res.Patterns = append(res.Patterns, p.Patterns...)
		res.Visited += p.Visited
		res.Stopped = res.Stopped || p.Stopped
	}
	return res
}

// Ranged is the Algorithm and Sharder of a miner whose search is a
// static, ordered list of task units: the miner supplies the unit count,
// a range miner and (optionally) a merge, and Ranged supplies the rest of
// the engine contract. Mine is Run over Merge of the one range [0, N),
// so it equals MergeShards over a single MineShard by construction.
type Ranged struct {
	// Algo is the registry name.
	Algo string
	// Uses declares the algorithm-specific Options the miner reads.
	Uses Uses
	// Units returns the run's task-unit count, or 0 when the run is
	// degenerate and handled whole by Range(ctx, d, opts, 0, -1).
	Units func(d *dataset.Dataset, opts Options) int
	// Range mines task units [lo, hi) — hi < 0 meaning through the last
	// unit — and returns the raw partial report: patterns in task order,
	// with any root work outside the units attributed to lo == 0.
	Range func(ctx context.Context, d *dataset.Dataset, opts Options, lo, hi int) *Report
	// Merge turns raw partial reports, given in task order, into the
	// unbracketed final report. Nil means Concat.
	Merge func(d *dataset.Dataset, opts Options, parts []*Report) *Report
}

// Name implements Algorithm.
func (r Ranged) Name() string { return r.Algo }

// Mine implements Algorithm: Run over the merge of the whole range.
func (r Ranged) Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Report, error) {
	return Run(r.Algo, opts, r.Uses, func() (*Report, error) {
		return r.merge(d, opts, []*Report{r.Range(ctx, d, opts, 0, -1)}), nil
	})
}

// ShardUnits implements Sharder.
func (r Ranged) ShardUnits(d *dataset.Dataset, opts Options) int { return r.Units(d, opts) }

// MineShard implements Sharder: it checks the options (Options.Validate,
// as Run applies) and that [lo, hi) is a non-empty range inside the
// recomputed unit count, then returns Range's raw report stamped with the
// algorithm name. Recomputing the units means a worker whose rebuilt
// dataset decomposes differently than the coordinator planned fails
// loudly here instead of mining the wrong subtrees.
func (r Ranged) MineShard(ctx context.Context, d *dataset.Dataset, opts Options, lo, hi int) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if units := r.Units(d, opts); lo < 0 || hi > units || lo >= hi {
		return nil, fmt.Errorf("engine: %s shard [%d,%d) invalid for %d task units", r.Algo, lo, hi, units)
	}
	rep := r.Range(ctx, d, opts, lo, hi)
	rep.Algorithm = r.Algo
	return rep, nil
}

// MergeShards implements Sharder: Run over the merge of the parts.
func (r Ranged) MergeShards(d *dataset.Dataset, opts Options, parts []*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: MergeShards(%s) needs at least one part", r.Algo)
	}
	return Run(r.Algo, opts, r.Uses, func() (*Report, error) {
		return r.merge(d, opts, parts), nil
	})
}

func (r Ranged) merge(d *dataset.Dataset, opts Options, parts []*Report) *Report {
	if r.Merge == nil {
		return Concat(parts)
	}
	return r.Merge(d, opts, parts)
}
