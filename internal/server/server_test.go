package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Manager) {
	t.Helper()
	mgr := server.NewManager(cfg)
	ts := httptest.NewServer(server.Handler(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// waitTerminal polls a job's status until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, snap := getJSON(t, base+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d for job %s: %v", code, id, snap)
		}
		switch snap["state"] {
		case "done", "failed", "canceled":
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %v after %v", id, snap["state"], timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPEndToEndAllAlgorithms submits one job per registered algorithm
// over HTTP and asserts the returned patterns are identical to the direct
// library call — the engine is the single source of truth, the transport
// adds nothing and loses nothing.
func TestHTTPEndToEndAllAlgorithms(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 4, QueueDepth: 16})
	opts := engine.Options{MinCount: 4, K: 20, MinSize: 1, MaxSize: 4, Seed: 7}
	optsJSON := `{"min_count": 4, "k": 20, "min_size": 1, "max_size": 4, "seed": 7}`
	d := datagen.DiagPlus(12, 6, 11)

	for _, alg := range engine.All() {
		if strings.HasPrefix(alg.Name(), "test") { // test-only fixtures, not miners
			continue
		}
		t.Run(alg.Name(), func(t *testing.T) {
			code, sub := postJSON(t, ts.URL+"/jobs", fmt.Sprintf(
				`{"algorithm": %q, "dataset": {"generator": "diagplus", "n": 12, "extra_rows": 6, "extra_cols": 11}, "options": %s}`,
				alg.Name(), optsJSON))
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %v", code, sub)
			}
			id := sub["id"].(string)
			snap := waitTerminal(t, ts.URL, id, time.Minute)
			if snap["state"] != "done" {
				t.Fatalf("job ended %v: %v", snap["state"], snap["error"])
			}

			_, result := getJSON(t, ts.URL+"/jobs/"+id+"/result")
			want, err := alg.Mine(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := result["patterns"].([]any)
			if len(got) != len(want.Patterns) {
				t.Fatalf("HTTP returned %d patterns, direct call %d", len(got), len(want.Patterns))
			}
			for i, g := range got {
				gp := g.(map[string]any)
				wp := want.Patterns[i]
				if int(gp["support"].(float64)) != wp.Support() {
					t.Fatalf("pattern %d support %v != %d", i, gp["support"], wp.Support())
				}
				items := gp["items"].([]any)
				if len(items) != len(wp.Items) {
					t.Fatalf("pattern %d size %d != %d", i, len(items), len(wp.Items))
				}
				for k, it := range items {
					if int(it.(float64)) != wp.Items[k] {
						t.Fatalf("pattern %d item %d: %v != %d", i, k, it, wp.Items[k])
					}
				}
			}
		})
	}
}

// TestCancelRunningJob submits a job that would explore ~2^21 nodes,
// cancels it as soon as it is visibly running, and asserts it stops at
// its polling cadence — within one iteration — rather than running out
// the clock.
func TestCancelRunningJob(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 22}, "options": {"min_count": 2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)

	// Wait until the job reports progress (it polls every node, emits an
	// event every engine.ProgressStride nodes).
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, snap := getJSON(t, ts.URL+"/jobs/"+id)
		if snap["state"] == "running" && snap["events"].(float64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reported progress: %v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	canceledAt := time.Now()
	snap := waitTerminal(t, ts.URL, id, 10*time.Second)
	if snap["state"] != "canceled" {
		t.Fatalf("state %v after cancel", snap["state"])
	}
	if stopLatency := time.Since(canceledAt); stopLatency > 5*time.Second {
		t.Fatalf("job took %v to stop after cancellation", stopLatency)
	}
	// Partial results from the canceled run stay retrievable.
	code, result := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result of canceled job: %d %v", code, result)
	}
	if result["stopped"] != true {
		t.Fatalf("canceled job's report not marked stopped: %v", result["stopped"])
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	// Occupy the single worker.
	_, blocker := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 22}, "options": {"min_count": 2}}`)
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 8}, "options": {"min_count": 4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: %d", code)
	}
	id := sub["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := waitTerminal(t, ts.URL, id, 10*time.Second)
	if snap["state"] != "canceled" {
		t.Fatalf("queued job state %v after cancel", snap["state"])
	}
	// Unblock the worker.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker["id"].(string), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestQueueBackpressure pins the bounded-queue contract: submissions
// beyond QueueDepth are rejected with 429, not buffered without bound.
func TestQueueBackpressure(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	long := `{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 22}, "options": {"min_count": 2}}`
	ids := []string{}
	sawFull := false
	// Worker + queue hold at most 2; the queue may momentarily have
	// capacity while the worker dequeues, so submit until rejected.
	for i := 0; i < 4; i++ {
		code, out := postJSON(t, ts.URL+"/jobs", long)
		switch code {
		case http.StatusAccepted:
			ids = append(ids, out["id"].(string))
		case http.StatusTooManyRequests:
			sawFull = true
		default:
			t.Fatalf("submit %d: %d %v", i, code, out)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

// TestJobTimeout pins the deadline path: a job whose timeout_ms elapses
// returns its partial result with stopped=true and state done.
func TestJobTimeout(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 22}, "options": {"min_count": 2}, "timeout_ms": 200}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	snap := waitTerminal(t, ts.URL, sub["id"].(string), 30*time.Second)
	if snap["state"] != "done" {
		t.Fatalf("timed-out job state %v (%v)", snap["state"], snap["error"])
	}
	if snap["stopped"] != true {
		t.Fatal("timed-out job not marked stopped")
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, MaxCells: 1000})
	cases := []struct {
		name, body string
	}{
		{"unknown algorithm", `{"algorithm": "nope", "dataset": {"generator": "diag", "n": 10}}`},
		{"no dataset source", `{"algorithm": "fusion", "dataset": {}}`},
		{"two dataset sources", `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 10, "transactions": [[1]]}}`},
		{"unknown generator", `{"algorithm": "fusion", "dataset": {"generator": "zipf", "n": 10}}`},
		{"path without data-dir", `{"algorithm": "fusion", "dataset": {"path": "x.dat"}}`},
		{"cell cap", `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 100}}`},
		{"sparse item-ID cap bypass", `{"algorithm": "apriori", "dataset": {"transactions": [[100000]]}}`},
		{"rows overflow bypass", `{"algorithm": "apriori", "dataset": {"generator": "random", "txns": 9223372036854775807, "items": 1, "density": 0.5}}`},
		{"diagplus rows overflow", `{"algorithm": "apriori", "dataset": {"generator": "diagplus", "n": 2, "extra_rows": 9223372036854775805, "extra_cols": 1}}`},
		{"negative timeout", `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 10}, "timeout_ms": -1}`},
		{"unknown field", `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 10}, "bogus": 1}`},
		{"negative min_count", `{"algorithm": "eclat", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": -5}}`},
		{"tau out of range", `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 10}, "options": {"tau": 1.5}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postJSON(t, ts.URL+"/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("got %d %v, want 400", code, out)
			}
		})
	}
}

// testpanic is registered only in this test binary: it panics
// unconditionally, standing in for any future miner/generator edge case
// that escapes as a panic on a worker goroutine.
func init() {
	engine.Register(engine.Ranged{Algo: "testpanic", Split: func(context.Context, *dataset.Dataset, engine.Options) *engine.Plan {
		panic("boom")
	}})
}

// TestJobPanicIsConfined pins the worker-side recover: a panicking job
// fails that job with the panic message instead of crashing the server.
func TestJobPanicIsConfined(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "testpanic", "dataset": {"generator": "diag", "n": 8}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	snap := waitTerminal(t, ts.URL, sub["id"].(string), 10*time.Second)
	if snap["state"] != "failed" {
		t.Fatalf("panicking job state %v, want failed", snap["state"])
	}
	if errMsg, _ := snap["error"].(string); !strings.Contains(errMsg, "boom") {
		t.Fatalf("panic message not surfaced: %q", errMsg)
	}
	// The server survived: it still accepts and completes jobs.
	code, sub = postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 8}, "options": {"min_count": 4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after panic: %d", code)
	}
	if snap := waitTerminal(t, ts.URL, sub["id"].(string), 10*time.Second); snap["state"] != "done" {
		t.Fatalf("job after panic ended %v", snap["state"])
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	code, out := getJSON(t, ts.URL+"/algorithms")
	if code != http.StatusOK {
		t.Fatalf("algorithms: %d", code)
	}
	algos := out["algorithms"].([]any)
	if len(algos) != len(engine.Names()) {
		t.Fatalf("algorithms %v, want %v", algos, engine.Names())
	}
}

// TestEventStream pins the NDJSON event log: a completed fusion job's
// stream contains start, init-pool, iteration and done phases in order.
func TestEventStream(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "fusion", "dataset": {"generator": "diagplus", "n": 12, "extra_rows": 6, "extra_cols": 11}, "options": {"min_count": 4, "k": 10, "seed": 3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := sub["id"].(string)
	waitTerminal(t, ts.URL, id, time.Minute)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var phases []string
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var e engine.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		phases = append(phases, string(e.Phase))
	}
	joined := strings.Join(phases, ",")
	if !strings.HasPrefix(joined, "start,init-pool") || !strings.HasSuffix(joined, "done") {
		t.Fatalf("unexpected phase sequence %v", phases)
	}
	if !strings.Contains(joined, "iteration") {
		t.Fatalf("no iteration events in %v", phases)
	}
}

// TestResultTop pins ?top=N truncation.
func TestResultTop(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, sub := postJSON(t, ts.URL+"/jobs",
		`{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5, "max_size": 2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := sub["id"].(string)
	snap := waitTerminal(t, ts.URL, id, time.Minute)
	if snap["state"] != "done" {
		t.Fatalf("job %v: %v", snap["state"], snap["error"])
	}
	_, full := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	_, top := getJSON(t, ts.URL+"/jobs/"+id+"/result?top=3")
	if n := len(top["patterns"].([]any)); n != 3 {
		t.Fatalf("top=3 returned %d patterns", n)
	}
	if top["truncated"] != true || full["truncated"] != false {
		t.Fatalf("truncated flags wrong: top=%v full=%v", top["truncated"], full["truncated"])
	}
	if top["total_patterns"] != full["total_patterns"] {
		t.Fatalf("total_patterns differ: %v vs %v", top["total_patterns"], full["total_patterns"])
	}
}
