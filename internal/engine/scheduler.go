package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves an Options.Parallelism value to a concrete worker count:
// the value itself when positive, otherwise runtime.GOMAXPROCS(0).
// (Negative values never reach a miner through the engine — Run rejects
// them — so the non-positive case exists for the zero default.)
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Tasks runs the n independent task units 0..n-1 on up to workers
// goroutines that claim tasks from one shared counter, and reports
// whether cancellation left any of them unrun.
//
// Tasks is the shared scheduler behind every miner's Parallelism support.
// The contract that makes it safe for bit-identical mining:
//
//   - run(worker, task) is called exactly once for every task in [0, n)
//     unless ctx is canceled first; worker ∈ [0, workers) identifies the
//     executing goroutine so callers can reuse per-worker scratch state.
//   - Which worker runs which task is scheduling-dependent and must not
//     influence the result: callers write each task's output into a
//     task-indexed slot and merge the slots in task order afterwards
//     (Concat).
//   - ctx is polled before every claim; once it is canceled, every worker
//     stops claiming tasks, and Tasks returns true if some task in
//     [0, n) never ran. A cancellation that lands after the last task
//     was claimed returns false: every task ran. Tasks that already
//     started still run to completion (they poll ctx themselves at the
//     miner's natural cadence).
//
// The task set is static — tasks never spawn further tasks — so one
// atomic next-task counter balances the load: an idle worker claims the
// lowest unclaimed task, and tasks start in ascending order, which puts
// the heavy low-numbered DFS subtrees first. With workers <= 1 (or
// n <= 1) the tasks run inline on the calling goroutine in task order,
// which is also the degenerate case of the merge rule above.
func Tasks(ctx context.Context, workers, n int, run func(worker, task int)) (stopped bool) {
	if n <= 0 {
		return false
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for task := 0; task < n; task++ {
			if ctx.Err() != nil {
				return true
			}
			run(0, task)
		}
		return false
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				task := int(next.Add(1) - 1)
				if task >= n {
					return
				}
				run(self, task)
			}
		}(w)
	}
	wg.Wait()
	return next.Load() < int64(n)
}

// A Meter is the per-run aggregation point the workers of one parallel
// mining run share: it fuses the two things every miner's hot loop does —
// poll for cancellation and report progress — into a single call that is
// safe from any number of goroutines.
//
// Node and pattern counts accumulate atomically across workers, and the
// PhaseIteration events emitted every ProgressStride nodes are serialized
// by a mutex, so an Observer sees one coherent event stream (monotone
// aggregate counts, no interleaving corruption) no matter how many workers
// feed it. Event timing and PoolSize snapshots may vary run to run with
// scheduling — events are telemetry, not part of the Report, which stays a
// pure function of (algorithm, dataset, Options).
type Meter struct {
	ctx      context.Context
	algo     string
	obs      Observer
	nodes    atomic.Int64
	patterns atomic.Int64
	mu       sync.Mutex
}

// NewMeter returns a Meter for one run of the named algorithm. obs may be
// nil (progress accounting still happens; nothing is emitted).
func NewMeter(ctx context.Context, algorithm string, obs Observer) *Meter {
	return &Meter{ctx: ctx, algo: algorithm, obs: obs}
}

// Visit records one explored search node and newPatterns newly emitted
// patterns, emits an aggregated PhaseIteration event every ProgressStride
// nodes, and reports whether the run's context has been canceled — the
// one-line replacement for the miners' per-node canceled() checks.
func (m *Meter) Visit(newPatterns int) bool {
	if newPatterns != 0 {
		m.patterns.Add(int64(newPatterns))
	}
	if n := m.nodes.Add(1); m.obs != nil && n%ProgressStride == 0 {
		m.mu.Lock()
		// Re-read both counters inside the lock: emissions are serialized
		// here, so consecutive events always carry non-decreasing counts
		// even when the stride boundaries were crossed out of order.
		m.obs(Event{
			Algorithm: m.algo, Phase: PhaseIteration,
			Iteration: int(m.nodes.Load()), PoolSize: int(m.patterns.Load()),
		})
		m.mu.Unlock()
	}
	return m.ctx.Err() != nil
}

// Canceled reports whether the run's context has been canceled without
// recording a node visit (for poll points that are not search nodes).
func (m *Meter) Canceled() bool { return m.ctx.Err() != nil }

// Emitted records n newly emitted patterns without counting a node visit,
// for miners whose emission points are not their poll points.
func (m *Meter) Emitted(n int) { m.patterns.Add(int64(n)) }
