package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
)

// testslow is registered only in this test binary: its root work
// signals that it started, then blocks until its context is canceled and
// answers with a Stopped report per the engine's cancellation contract —
// so tests can hold a job in the running state deterministically.
var slowStarted = make(chan struct{}, 16)

func init() {
	engine.Register(engine.Ranged{Algo: "testslow", Split: func(ctx context.Context, _ *dataset.Dataset, _ engine.Options) *engine.Plan {
		slowStarted <- struct{}{}
		<-ctx.Done()
		return &engine.Plan{Root: &engine.Report{Stopped: true}}
	}})
}

// getBody fetches a URL and returns the raw response body, for
// byte-identity comparisons.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestCrashResumeEndToEnd is the restart acceptance test: jobs and the
// catalog submitted against one -data-dir survive a crash — completed
// results are re-served byte-identically without re-running, a job whose
// record was left in "running" by the crash re-runs to a byte-identical
// result, and an acknowledged-but-never-started job runs to completion.
func TestCrashResumeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := server.NewManager(server.Config{Workers: 2, QueueDepth: 16, Store: st})
	ts1 := httptest.NewServer(server.Handler(mgr1))

	// Upload a catalog dataset, then submit three jobs (one against the
	// upload) and let them all finish.
	req, _ := http.NewRequest(http.MethodPut, ts1.URL+"/datasets/d1", strings.NewReader("1 2 3\n1 2\n2 3\n1 2 3\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	specs := []string{
		`{"algorithm": "fusion", "dataset": {"generator": "diagplus", "n": 12, "extra_rows": 6, "extra_cols": 11}, "options": {"min_count": 4, "k": 20, "seed": 7}}`,
		`{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5}}`,
		`{"algorithm": "fpgrowth", "dataset": {"catalog": "d1"}, "options": {"min_count": 2}}`,
	}
	for i, spec := range specs {
		code, sub := postJSON(t, ts1.URL+"/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, code, sub)
		}
		if want := "job-" + strconv.Itoa(i+1); sub["id"] != want {
			t.Fatalf("submit %d: id %v, want %s", i, sub["id"], want)
		}
	}
	results := make(map[string]string)
	ends := make(map[string]any)
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		snap := waitTerminal(t, ts1.URL, id, time.Minute)
		if snap["state"] != "done" {
			t.Fatalf("%s ended %v: %v", id, snap["state"], snap["error"])
		}
		ends[id] = snap["ended_at"]
		_, results[id] = getBody(t, ts1.URL+"/jobs/"+id+"/result")
	}
	ts1.Close()
	mgr1.Close()

	// Simulate a crash mid-run: job-2's durable record says "running" and
	// its result never made it to disk; job-4 was acknowledged (record
	// written) but never started.
	recs, _, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	var job2 server.JobRecord
	for _, rec := range recs {
		if rec.ID == "job-2" {
			job2 = rec
		}
	}
	job2.State = server.StateRunning
	if err := st.SaveJob(job2); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "jobs", "job-2.result.json")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveJob(server.JobRecord{
		ID: "job-4", Seq: 4, State: server.StateQueued, Created: time.Now(),
		Spec: mustSpec(t, `{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 9}, "options": {"min_count": 4}}`),
	}); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory.
	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := server.NewManager(server.Config{Workers: 2, QueueDepth: 16, Store: st2})
	ts2 := httptest.NewServer(server.Handler(mgr2))
	t.Cleanup(func() {
		ts2.Close()
		mgr2.Close()
	})

	// Completed jobs re-serve their persisted results without re-running:
	// same terminal timestamp, byte-identical result payload.
	for _, id := range []string{"job-1", "job-3"} {
		code, snap := getJSON(t, ts2.URL+"/jobs/"+id)
		if code != http.StatusOK || snap["state"] != "done" {
			t.Fatalf("%s after restart: %d %v", id, code, snap)
		}
		if snap["ended_at"] != ends[id] {
			t.Fatalf("%s re-ran after restart: ended %v, originally %v", id, snap["ended_at"], ends[id])
		}
		if _, body := getBody(t, ts2.URL+"/jobs/"+id+"/result"); body != results[id] {
			t.Fatalf("%s result changed across restart:\n%s\nvs\n%s", id, body, results[id])
		}
	}

	// The crash-interrupted job re-runs to a byte-identical result — the
	// determinism contract — and the never-started one completes.
	if snap := waitTerminal(t, ts2.URL, "job-2", time.Minute); snap["state"] != "done" {
		t.Fatalf("job-2 resume ended %v: %v", snap["state"], snap["error"])
	}
	if _, body := getBody(t, ts2.URL+"/jobs/job-2/result"); body != results["job-2"] {
		t.Fatalf("job-2 re-run result differs from the pre-crash run:\n%s\nvs\n%s", body, results["job-2"])
	}
	if snap := waitTerminal(t, ts2.URL, "job-4", time.Minute); snap["state"] != "done" {
		t.Fatalf("job-4 ended %v: %v", snap["state"], snap["error"])
	}
	if got := mgr2.Metrics().JobsResumed.Value(); got != 2 {
		t.Fatalf("jobs_resumed_total = %v, want 2 (job-2 and job-4)", got)
	}

	// The catalog survived too (manifest + blob re-ingested), and job
	// numbering resumes above the recovered sequence.
	code, entry := getJSON(t, ts2.URL+"/datasets/d1")
	if code != http.StatusOK || entry["rows"] != float64(4) {
		t.Fatalf("catalog entry after restart: %d %v", code, entry)
	}
	code, sub := postJSON(t, ts2.URL+"/jobs", specs[2])
	if code != http.StatusAccepted || sub["id"] != "job-5" {
		t.Fatalf("post-restart submit: %d %v (want job-5)", code, sub)
	}
	if snap := waitTerminal(t, ts2.URL, "job-5", time.Minute); snap["state"] != "done" {
		t.Fatalf("job-5 ended %v: %v", snap["state"], snap["error"])
	}
}

// TestGracefulShutdownCheckpoint is the shutdown regression test: a
// drain that expires with a job still running must not lose any job
// record — the running job is checkpointed back to queued on disk, the
// queued one stays queued, and a restart resumes both.
func TestGracefulShutdownCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.Config{Workers: 1, QueueDepth: 16, Store: st})

	slow, err := mgr.Submit(mustSpec(t, `{"algorithm": "testslow", "dataset": {"generator": "diag", "n": 4}, "options": {}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-slowStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("slow job never started")
	}
	queued, err := mgr.Submit(mustSpec(t, `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 8}, "options": {"min_count": 4}}`), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	remaining := mgr.Shutdown(ctx)
	cancel()
	if remaining != 2 {
		t.Fatalf("Shutdown reported %d unfinished jobs, want 2", remaining)
	}
	if _, err := mgr.Submit(mustSpec(t, `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 8}, "options": {"min_count": 4}}`), nil); err != server.ErrDraining {
		t.Fatalf("Submit after Shutdown: %v, want ErrDraining", err)
	}

	// No lost records: both jobs are on disk, checkpointed to queued.
	recs, warns, err := st.LoadJobs()
	if err != nil || len(warns) != 0 {
		t.Fatalf("LoadJobs: %v %v", warns, err)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 durable records after shutdown, got %d", len(recs))
	}
	for _, rec := range recs {
		if rec.State != server.StateQueued {
			t.Fatalf("record %s is %q after shutdown, want queued", rec.ID, rec.State)
		}
	}
	if recs[0].ID != slow.ID || recs[1].ID != queued.ID {
		t.Fatalf("records [%s %s], want [%s %s]", recs[0].ID, recs[1].ID, slow.ID, queued.ID)
	}

	// A restart picks both up again: the interrupted job starts running.
	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := server.NewManager(server.Config{Workers: 1, QueueDepth: 16, Store: st2})
	t.Cleanup(mgr2.Close)
	if got := mgr2.Metrics().JobsResumed.Value(); got != 2 {
		t.Fatalf("jobs_resumed_total = %v, want 2", got)
	}
	select {
	case <-slowStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpointed job did not resume after restart")
	}
}

// metricSum parses a Prometheus text exposition and sums every sample of
// name whose label section contains all of contains.
func metricSum(t *testing.T, text, name string, contains ...string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // a longer metric name sharing the prefix
		}
		ok := true
		for _, c := range contains {
			if !strings.Contains(rest, c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMetricsReconciliation checks the acceptance property that the
// /metrics counters reconcile with the engine's Observer events: after N
// uncanceled runs, jobs_total{state="done"} == N == engine done events,
// and the mine-latency histogram observed exactly N runs.
func TestMetricsReconciliation(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 16})

	for _, alg := range []string{"fusion", "apriori", "eclat"} {
		code, sub := postJSON(t, ts.URL+"/jobs", `{"algorithm": "`+alg+`", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", alg, code, sub)
		}
		if snap := waitTerminal(t, ts.URL, sub["id"].(string), time.Minute); snap["state"] != "done" {
			t.Fatalf("%s ended %v: %v", alg, snap["state"], snap["error"])
		}
	}
	// Upload the same bytes twice: the second PUT must hit the
	// content-hash cache.
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/datasets/m"+strconv.Itoa(i), strings.NewReader("1 2\n1 2\n2 3\n"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	code, text := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	checks := []struct {
		want     float64
		name     string
		contains []string
	}{
		{3, "pfserve_jobs_total", []string{`state="done"`, `tenant="anonymous"`}},
		{3, "pfserve_jobs_total", []string{`state="running"`}},
		{3, "pfserve_engine_events_total", []string{`phase="done"`}},
		{3, "pfserve_engine_events_total", []string{`phase="start"`}},
		{3, "pfserve_mine_duration_seconds_count", nil},
		{0, "pfserve_jobs_active", []string{`state="queued"`}},
		{0, "pfserve_jobs_active", []string{`state="running"`}},
		{0, "pfserve_queue_depth", nil},
		{1, "pfserve_catalog_cache_hits_total", nil},
		{2, "pfserve_catalog_datasets", nil},
	}
	for _, c := range checks {
		if got := metricSum(t, text, c.name, c.contains...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.contains, got, c.want)
		}
	}
	// Ingest bytes: two uploads of the same 12-byte body both count.
	if got := metricSum(t, text, "pfserve_ingest_bytes_total", `tenant="anonymous"`); got != 24 {
		t.Errorf("ingest_bytes_total = %v, want 24", got)
	}
	if got := metricSum(t, text, "pfserve_http_requests_total", `method="POST"`, `code="202"`); got != 3 {
		t.Errorf("http_requests_total{POST,202} = %v, want 3", got)
	}
}
