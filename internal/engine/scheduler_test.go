package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestTasksRunsEveryTaskOnce pins the scheduler's core obligation under
// contention: every task in [0, n) runs exactly once, for worker counts
// below, at, and above the task count.
func TestTasksRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 500
		var ran [n]atomic.Int32
		stopped := Tasks(context.Background(), workers, n, func(_, task int) {
			ran[task].Add(1)
		})
		if stopped {
			t.Fatalf("workers=%d: uncanceled run reported stopped", workers)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestTasksSkewedLoad: the low task IDs hold almost all the work
// (simulated by heavy spinning), and the run must still complete every
// task exactly once.
func TestTasksSkewedLoad(t *testing.T) {
	const n = 64
	var ran [n]atomic.Int32
	var total atomic.Int64
	Tasks(context.Background(), 8, n, func(_, task int) {
		spin := 1
		if task < 8 {
			spin = 200000 // the first block is ~all of the work
		}
		acc := 0
		for i := 0; i < spin; i++ {
			acc += i
		}
		total.Add(int64(acc))
		ran[task].Add(1)
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

// TestTasksWorkerIndex pins that the worker argument stays within
// [0, workers) so per-worker scratch arrays are safe to index.
func TestTasksWorkerIndex(t *testing.T) {
	const workers = 4
	var bad atomic.Int32
	Tasks(context.Background(), workers, 200, func(worker, _ int) {
		if worker < 0 || worker >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker index out of range")
	}
}

// TestTasksCancellation: a context canceled mid-run must stop the
// scheduler promptly (stopped=true) without running the remaining tasks,
// and a pre-canceled context must not run any task at all.
func TestTasksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	stopped := Tasks(ctx, 4, 10000, func(_, _ int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !stopped {
		t.Error("canceled run not reported as stopped")
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("cancellation did not preempt any tasks (%d ran)", n)
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	ran.Store(0)
	if !Tasks(pre, 4, 100, func(_, _ int) { ran.Add(1) }) {
		t.Error("pre-canceled run not reported as stopped")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("pre-canceled run executed %d tasks", n)
	}
}

// TestTasksCancelAfterLastClaim pins that a cancellation landing after
// every task was claimed does not report the run stopped: task 0 blocks
// until task 1 has started, and task 1 cancels ctx, so the worker that
// finishes task 1 sees the cancellation with nothing left to claim.
func TestTasksCancelAfterLastClaim(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var ran atomic.Int32
	stopped := Tasks(ctx, 2, 2, func(_, task int) {
		ran.Add(1)
		if task == 0 {
			<-started
			return
		}
		close(started)
		cancel()
	})
	if stopped {
		t.Error("cancellation after the last claim reported stopped")
	}
	if n := ran.Load(); n != 2 {
		t.Errorf("%d tasks ran, want 2", n)
	}
}

// TestTasksEmpty pins the degenerate shapes: no tasks, one task, more
// workers than tasks.
func TestTasksEmpty(t *testing.T) {
	if Tasks(context.Background(), 8, 0, func(_, _ int) { t.Fatal("ran a task") }) {
		t.Fatal("empty uncanceled run reported stopped")
	}
	var ran atomic.Int32
	Tasks(context.Background(), 8, 1, func(_, task int) {
		if task != 0 {
			t.Errorf("unexpected task %d", task)
		}
		ran.Add(1)
	})
	if ran.Load() != 1 {
		t.Fatal("single task did not run exactly once")
	}
}

// TestMeterAggregates pins the Meter contract: node and pattern counts
// accumulate across callers, an event fires every ProgressStride visits
// with monotone aggregate counts, and cancellation is reported.
func TestMeterAggregates(t *testing.T) {
	var events []Event
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMeter(ctx, "test", func(e Event) { events = append(events, e) })
	for i := 0; i < 2*ProgressStride; i++ {
		if m.Visit(1) {
			t.Fatal("uncanceled Visit reported cancellation")
		}
	}
	if len(events) != 2 {
		t.Fatalf("got %d events after 2*ProgressStride visits, want 2", len(events))
	}
	if events[0].Iteration != ProgressStride || events[1].Iteration != 2*ProgressStride {
		t.Errorf("event iterations = %d, %d", events[0].Iteration, events[1].Iteration)
	}
	if events[1].PoolSize != 2*ProgressStride {
		t.Errorf("aggregate pool size = %d, want %d", events[1].PoolSize, 2*ProgressStride)
	}
	m.Emitted(5)
	cancel()
	if !m.Visit(0) {
		t.Error("canceled Visit not reported")
	}
	if !m.Canceled() {
		t.Error("Canceled() false after cancel")
	}
}
