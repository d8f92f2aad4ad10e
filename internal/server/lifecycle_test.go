package server_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
)

// lifecycleCounts is the /metrics view of the job lifecycle: how many
// jobs entered each state (pfserve_jobs_total, summed over tenants) and
// how many are queued or running now (pfserve_jobs_active).
type lifecycleCounts struct {
	queued, running, done, failed, canceled float64 // jobs_total
	activeQueued, activeRunning             float64 // jobs_active
}

// checkLifecycle scrapes mgr's registry and compares the lifecycle
// instruments with want.
func checkLifecycle(t *testing.T, step string, mgr *server.Manager, want lifecycleCounts) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := mgr.Metrics().Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	total := func(state string) float64 {
		return metricSum(t, text, "pfserve_jobs_total", `state="`+state+`"`)
	}
	active := func(state string) float64 {
		return metricSum(t, text, "pfserve_jobs_active", `state="`+state+`"`)
	}
	got := lifecycleCounts{
		queued: total("queued"), running: total("running"), done: total("done"),
		failed: total("failed"), canceled: total("canceled"),
		activeQueued: active("queued"), activeRunning: active("running"),
	}
	if got != want {
		t.Errorf("%s: lifecycle metrics %+v, want %+v", step, got, want)
	}
}

// checkQueueDepth scrapes pfserve_queue_depth.
func checkQueueDepth(t *testing.T, step string, mgr *server.Manager, want float64) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := mgr.Metrics().Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := metricSum(t, buf.String(), "pfserve_queue_depth"); got != want {
		t.Errorf("%s: queue_depth = %v, want %v", step, got, want)
	}
}

// waitJob polls a job until it reaches want.
func waitJob(t *testing.T, mgr *server.Manager, j *server.Job, want server.State) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		s := mgr.Snapshot(j).State
		if s == want {
			return
		}
		if s.Terminal() || time.Now().After(deadline) {
			t.Fatalf("%s is %s, want %s", j.ID, s, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitSlowStart waits for a testslow job to be running.
func awaitSlowStart(t *testing.T) {
	t.Helper()
	select {
	case <-slowStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("slow job never started")
	}
}

// TestJobLifecycleMetrics pins the lifecycle counters and gauges after
// every path a job can take through the manager: submit → done, cancel
// while queued, cancel while running, and a shutdown checkpoint resumed
// by a restart. It also checks that a submission rejected for a full
// queue leaves no durable record, so a restart cannot resurrect it.
func TestJobLifecycleMetrics(t *testing.T) {
	const slow = `{"algorithm": "testslow", "dataset": {"generator": "diag", "n": 4}, "options": {}}`
	const quick = `{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5, "max_size": 2}}`
	dir := t.TempDir()
	open := func() *server.Manager {
		t.Helper()
		st, err := server.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		mgr := server.NewManager(server.Config{Workers: 1, QueueDepth: 1, Store: st})
		t.Cleanup(mgr.Close)
		return mgr
	}
	submit := func(mgr *server.Manager, spec string) *server.Job {
		t.Helper()
		j, err := mgr.Submit(mustSpec(t, spec), nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	mgr := open()
	checkLifecycle(t, "fresh", mgr, lifecycleCounts{})

	// submit → done.
	done := submit(mgr, quick)
	waitJob(t, mgr, done, server.StateDone)
	checkLifecycle(t, "done", mgr, lifecycleCounts{queued: 1, running: 1, done: 1})
	checkQueueDepth(t, "done", mgr, 0)

	// A running job holds the only worker; a second job waits queued.
	running := submit(mgr, slow)
	awaitSlowStart(t)
	queued := submit(mgr, quick)
	checkLifecycle(t, "running+queued", mgr, lifecycleCounts{
		queued: 3, running: 2, done: 1, activeQueued: 1, activeRunning: 1})

	// Cancel while queued.
	if !mgr.Cancel(queued.ID) {
		t.Fatalf("Cancel(%s) = false", queued.ID)
	}
	waitJob(t, mgr, queued, server.StateCanceled)
	checkLifecycle(t, "cancel queued", mgr, lifecycleCounts{
		queued: 3, running: 2, done: 1, canceled: 1, activeRunning: 1})

	// The canceled job still occupies the queue's one slot until the
	// worker dequeues it, so this submission is rejected — and must
	// leave no write-ahead record behind.
	_, err := mgr.Submit(mustSpec(t, quick), nil)
	if !errors.Is(err, server.ErrQueueFull) {
		t.Fatalf("Submit on a full queue: %v, want ErrQueueFull", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "job-4.json")); !os.IsNotExist(err) {
		t.Fatalf("rejected job left a record: stat err %v", err)
	}
	checkLifecycle(t, "queue full", mgr, lifecycleCounts{
		queued: 3, running: 2, done: 1, canceled: 1, activeRunning: 1})

	// Cancel while running.
	if !mgr.Cancel(running.ID) {
		t.Fatalf("Cancel(%s) = false", running.ID)
	}
	waitJob(t, mgr, running, server.StateCanceled)
	checkLifecycle(t, "cancel running", mgr, lifecycleCounts{
		queued: 3, running: 2, done: 1, canceled: 2})

	// Every job is terminal, so a restart resumes nothing: in
	// particular not the rejected submission.
	mgr.Close()
	mgr = open()
	if got := mgr.Metrics().JobsResumed.Value(); got != 0 {
		t.Fatalf("jobs_resumed_total = %v after a restart with only terminal jobs, want 0", got)
	}
	checkLifecycle(t, "restart", mgr, lifecycleCounts{})

	// A shutdown checkpoints the running job back to queued; the
	// re-queue is not a new lifecycle entry.
	interrupted := submit(mgr, slow)
	if interrupted.ID != "job-4" {
		t.Fatalf("post-restart submit got %s, want job-4", interrupted.ID)
	}
	awaitSlowStart(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if n := mgr.Shutdown(ctx); n != 1 {
		t.Fatalf("Shutdown left %d unfinished jobs, want 1", n)
	}
	cancel()
	checkLifecycle(t, "checkpoint", mgr, lifecycleCounts{
		queued: 1, running: 1, activeQueued: 1})
	checkQueueDepth(t, "checkpoint", mgr, 0)

	// The restart resumes it; resuming is not counted as a submission.
	mgr = open()
	if got := mgr.Metrics().JobsResumed.Value(); got != 1 {
		t.Fatalf("jobs_resumed_total = %v, want 1", got)
	}
	awaitSlowStart(t)
	resumed, ok := mgr.Get(interrupted.ID)
	if !ok {
		t.Fatalf("%s not recovered", interrupted.ID)
	}
	waitJob(t, mgr, resumed, server.StateRunning)
	checkLifecycle(t, "resumed", mgr, lifecycleCounts{running: 1, activeRunning: 1})
	checkQueueDepth(t, "resumed", mgr, 0)
	if !mgr.Cancel(resumed.ID) {
		t.Fatalf("Cancel(%s) = false", resumed.ID)
	}
	waitJob(t, mgr, resumed, server.StateCanceled)
	checkLifecycle(t, "resumed+canceled", mgr, lifecycleCounts{running: 1, canceled: 1})
}

// TestStoreErrorsCounted breaks the job store under a running manager:
// a submission whose write-ahead record cannot be written is refused
// and never counted as queued, and the failure is counted by
// pfserve_store_errors_total{op="job"}.
func TestStoreErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.Config{Workers: 1, Store: st})
	t.Cleanup(mgr.Close)
	if err := os.RemoveAll(filepath.Join(dir, "jobs")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(mustSpec(t, `{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 4}, "options": {}}`), nil); err == nil {
		t.Fatal("Submit succeeded without a writable job store")
	}
	if got := mgr.Metrics().StoreErrors.Value("job"); got != 1 {
		t.Errorf(`store_errors_total{op="job"} = %v, want 1`, got)
	}
	checkLifecycle(t, "refused", mgr, lifecycleCounts{})
	if jobs := mgr.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submission left %d jobs in the table", len(jobs))
	}
}

// TestDoneWithoutResultReruns pins recovery of a done record whose
// result file is gone: the restart resumes the job (not counted as a
// submission) and it runs to done again, instead of answering 409
// forever.
func TestDoneWithoutResultReruns(t *testing.T) {
	dir := t.TempDir()
	open := func() *server.Manager {
		t.Helper()
		st, err := server.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		mgr := server.NewManager(server.Config{Workers: 1, Store: st})
		t.Cleanup(mgr.Close)
		return mgr
	}
	mgr := open()
	j, err := mgr.Submit(mustSpec(t, `{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5, "max_size": 2}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, mgr, j, server.StateDone)
	mgr.Close()
	if err := os.Remove(filepath.Join(dir, "jobs", j.ID+".result.json")); err != nil {
		t.Fatal(err)
	}

	mgr = open()
	if got := mgr.Metrics().JobsResumed.Value(); got != 1 {
		t.Fatalf("jobs_resumed_total = %v, want 1", got)
	}
	again, ok := mgr.Get(j.ID)
	if !ok {
		t.Fatalf("%s not recovered", j.ID)
	}
	waitJob(t, mgr, again, server.StateDone)
	if rep, ok := mgr.Report(again); !ok || len(rep.Patterns) != 55 {
		t.Fatalf("re-run report: ok=%v", ok)
	}
	checkLifecycle(t, "re-run", mgr, lifecycleCounts{running: 1, done: 1})
}
