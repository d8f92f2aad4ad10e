package engine

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Plan is one run's decomposition into static task units, built by a
// miner's split function after it has done the root work — the work
// outside the units, such as a dispatcher expansion, a root closure or
// an initial pool — exactly once. The engine owns the rest: it hands
// the root's share to the range that starts at 0, runs the range's
// tasks on the Tasks scheduler and merges the reports in task order.
//
// A plan may mine several ranges one after another (never concurrently:
// its tasks share per-worker scratch state).
type Plan struct {
	// Root is the root work's own report: the patterns, counters and
	// cancellation of the work done outside the task units. It belongs
	// to the range that starts at 0. Never nil.
	Root *Report
	// Units is the task-unit count; 0 means the root handled the run.
	Units int
	// Task mines one unit on the given Tasks worker, in
	// [0, Workers(Options.Parallelism)), and returns the unit's report.
	// It may be nil when Units is 0.
	Task func(worker, unit int) *Report
	// Merge turns reports given in task order (the root's share first)
	// into the unbracketed answer; nil means Concat. It must compose:
	// merging the merges of consecutive runs of parts equals merging
	// the parts, which is what lets a shard ship its own merged answer.
	Merge func(parts []*Report) *Report

	algo string
	uses Uses
	opts Options
}

// MineShard mines task units [lo, hi) — after checking that they are a
// non-empty range inside the plan's unit count — and returns the range's
// merged answer (in the merge's order, not SortPatterns order, and
// without Warnings) stamped with the algorithm name.
func (p *Plan) MineShard(ctx context.Context, lo, hi int) (*Report, error) {
	if lo < 0 || hi > p.Units || lo >= hi {
		return nil, fmt.Errorf("engine: %s shard [%d,%d) invalid for %d task units", p.algo, lo, hi, p.Units)
	}
	rep := p.mine(ctx, lo, hi)
	rep.Algorithm = p.algo
	return rep, nil
}

// MergeShards is Run over the merge of shard answers given in shard
// order, whose ranges must cover [0, Units) exactly.
func (p *Plan) MergeShards(parts []*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: MergeShards(%s) needs at least one part", p.algo)
	}
	return Run(p.algo, p.opts, p.uses, func() (*Report, error) {
		return p.Merge(parts), nil
	})
}

// mine runs units [lo, hi) and merges them behind the root's share: the
// whole root report for lo == 0, only its cancellation otherwise. A
// stopped root runs no task.
func (p *Plan) mine(ctx context.Context, lo, hi int) *Report {
	parts := make([]*Report, 1+hi-lo)
	parts[0] = p.Root
	if lo != 0 {
		parts[0] = &Report{Stopped: p.Root.Stopped}
	}
	if !p.Root.Stopped {
		Tasks(ctx, Workers(p.opts.Parallelism), hi-lo, func(worker, task int) {
			parts[1+task] = p.Task(worker, lo+task)
		})
	}
	return p.Merge(parts)
}

// Concat is the one task-order merge: it concatenates the parts'
// Patterns and Pool in order, sums Visited, Iterations and
// InitPoolSize, and ORs Stopped. A nil part is a task abandoned after
// cancellation, so it marks the result Stopped. The same function merges
// a miner's per-task reports in process and its shard answers on a
// coordinator; a single non-nil part comes back as is.
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
		if p.Pool != nil && res.Pool == nil {
			res.Pool = [][]int{} // a kept empty pool stays a warm start
		}
		res.Pool = append(res.Pool, p.Pool...)
		res.Visited += p.Visited
		res.Iterations += p.Iterations
		res.InitPoolSize += p.InitPoolSize
		res.Stopped = res.Stopped || p.Stopped
	}
	return res
}

// Ranged is the Algorithm of a miner whose search is a static, ordered
// list of task units: the miner supplies a split function that does the
// root work and returns the Plan, and Ranged supplies the rest of the
// engine contract. Mine is Run over the plan's full range, so it equals
// MergeShards over a single MineShard by construction. A run whose
// search is globally coupled (fusion's iterations, apriori's levels) is
// a plan of one unit that mines the whole run.
type Ranged struct {
	// Algo is the registry name.
	Algo string
	// Uses declares the algorithm-specific Options the miner reads.
	Uses Uses
	// Split does the root work under ctx (the miner's Meter reads
	// opts.Observer) and returns the decomposition; Ranged fills in the
	// plan's bookkeeping.
	Split func(ctx context.Context, d *dataset.Dataset, opts Options) *Plan
}

// Name implements Algorithm.
func (r Ranged) Name() string { return r.Algo }

// Mine implements Algorithm: Run over the plan's full range.
func (r Ranged) Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Report, error) {
	return Run(r.Algo, opts, r.Uses, func() (*Report, error) {
		p := r.split(ctx, d, opts)
		return p.mine(ctx, 0, p.Units), nil
	})
}

// Plan implements Algorithm: it checks the options (Options.Validate, as
// Run applies) and then splits the run.
func (r Ranged) Plan(ctx context.Context, d *dataset.Dataset, opts Options) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return r.split(ctx, d, opts), nil
}

func (r Ranged) split(ctx context.Context, d *dataset.Dataset, opts Options) *Plan {
	p := r.Split(ctx, d, opts)
	p.algo, p.uses, p.opts = r.Algo, r.Uses, opts
	if p.Merge == nil {
		p.Merge = Concat
	}
	return p
}
