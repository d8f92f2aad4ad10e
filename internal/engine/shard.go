package engine

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Plan is one run's decomposition into static task units, built by a
// miner's split function after it has done the root work — the work
// outside the units, such as a dispatcher expansion, a root closure or
// an initial pool — exactly once. The engine owns the rest: one range
// loop cuts the units into contiguous shards, runs the shards on the
// Tasks scheduler and merges the root's share and the shard answers in
// order. Mine, MineShard and Lease all go through that loop.
//
// A plan may mine several ranges one after another (never concurrently:
// its tasks share per-worker scratch state).
type Plan struct {
	// Root is the root work's own report: the patterns, counters and
	// cancellation of the work done outside the task units. It belongs
	// to the run that covers every unit (Mine, Lease), which merges it
	// ahead of the first shard; a shard answer carries only its
	// cancellation. Never nil.
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

// A Shard is the Index-th (from 0) of the Count contiguous blocks a
// run's task units are cut into: units [Lo, Hi) of a plan of Units.
type Shard struct {
	Index, Count int
	Lo, Hi       int
	Units        int
}

// String renders the shard as "i/n", 1-based, as events tag it.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index+1, s.Count) }

// run is the one range loop. It cuts task units [lo, hi) into at most n
// contiguous shards of near-equal size (shard i is [lo+i·m/n,
// lo+(i+1)·m/n) for m = hi−lo), so a shard boundary is always a
// task-unit boundary and the shard answers concatenate in the
// single-node generation order. It mines the shards with mine on Tasks
// with up to workers goroutines and merges share — the root's share of
// the range — and the shard answers in order. A stopped share runs no
// shard: the root was canceled and Units is not the run's
// decomposition. A shard left nil (abandoned on cancellation) marks the
// merge Stopped, as Concat does; a blank share is left out, so a
// one-unit plan's answer is its task's report.
func (p *Plan) run(ctx context.Context, share *Report, lo, hi, n, workers int, mine func(worker int, s Shard) *Report) *Report {
	if share.Stopped {
		return p.Merge([]*Report{share})
	}
	n = min(n, hi-lo)
	parts := make([]*Report, 1+n)
	parts[0] = share
	Tasks(ctx, workers, n, func(worker, i int) {
		parts[1+i] = mine(worker, Shard{Index: i, Count: n,
			Lo: lo + i*(hi-lo)/n, Hi: lo + (i+1)*(hi-lo)/n, Units: p.Units})
	})
	if blank(share) {
		parts = parts[1:]
	}
	return p.Merge(parts)
}

// task mines a one-unit shard with the plan's own Task.
func (p *Plan) task(worker int, s Shard) *Report { return p.Task(worker, s.Lo) }

// MineShard is a worker's side of a lease: it mines task units
// [lo, hi) of a plan the coordinator cut at units, one unit per shard,
// and returns the range's merged answer — in the merge's order, not
// SortPatterns order, without Warnings and with only the root's
// cancellation — stamped with the algorithm name. A stopped root ends
// the lease stopped without mining; otherwise units must equal the
// plan's unit count (a mismatch is dataset or version drift) and the
// range must be non-empty and inside it.
func (p *Plan) MineShard(ctx context.Context, lo, hi, units int) (*Report, error) {
	if !p.Root.Stopped && (units != p.Units || lo < 0 || hi > units || lo >= hi) {
		return nil, fmt.Errorf("engine: %s shard [%d,%d) of %d task units does not fit a plan of %d (dataset or version drift)", p.algo, lo, hi, units, p.Units)
	}
	rep := p.run(ctx, &Report{Stopped: p.Root.Stopped}, lo, hi, hi-lo, Workers(p.opts.Parallelism), p.task)
	rep.Algorithm = p.algo
	return rep, nil
}

// Lease is Mine on a distributed coordinator: it plans the run (the
// root work runs unobserved, before PhaseStart), cuts the task units
// into at most n contiguous shards and has lease mine each shard —
// concurrently, on another process, through MineShard — instead of the
// plan's own tasks, which it drops first with the root state they pin.
// The merge and the Run bracket are Mine's, so opts.Observer sees one
// start and one done on every path, canceled ones included. The first
// lease error cancels the other shards and fails the run, unless ctx
// was canceled, which ends it Stopped with the shards that finished.
func Lease(ctx context.Context, alg Algorithm, d *dataset.Dataset, opts Options, n int, lease func(context.Context, Shard) (*Report, error)) (*Report, error) {
	quiet := opts
	quiet.Observer = nil
	p, err := alg.Plan(ctx, d, quiet)
	if err != nil {
		return nil, err
	}
	p.Task = nil
	n = max(n, 1)
	return Run(p.algo, opts, p.uses, func() (*Report, error) {
		lctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		rep := p.run(lctx, p.Root, 0, p.Units, n, n, func(_ int, s Shard) *Report {
			rep, err := lease(lctx, s)
			if err != nil {
				cancel(err)
				return nil
			}
			return rep
		})
		if err := context.Cause(lctx); err != nil && ctx.Err() == nil {
			return nil, err
		}
		return rep, nil
	})
}

// blank reports whether r adds nothing to a merge: no patterns, pool,
// counters, quality or cancellation.
func blank(r *Report) bool {
	return len(r.Patterns) == 0 && r.Pool == nil && r.Visited == 0 && r.Iterations == 0 &&
		r.InitPoolSize == 0 && r.Quality == nil && !r.Stopped
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
// engine contract. Mine is Run over the range loop with one unit per
// shard, so it equals a Lease of the same plan by construction. A run whose
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
	// Ordered declares pattern Items to be ordered sequences, which an
	// item-ID translation (ingest.RemapReport) must not re-sort.
	Ordered bool
}

// Name implements Algorithm.
func (r Ranged) Name() string { return r.Algo }

// Mine implements Algorithm: Run over the plan's full range, one unit
// per shard, mined by the plan's own tasks.
func (r Ranged) Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Report, error) {
	return Run(r.Algo, opts, r.Uses, func() (*Report, error) {
		p := r.split(ctx, d, opts)
		return p.run(ctx, p.Root, 0, p.Units, p.Units, Workers(opts.Parallelism), p.task), nil
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
