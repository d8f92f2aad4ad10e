// Distributed conformance: a coordinator fanning a job out across N
// in-process worker pfserves must produce a Report whose canonical
// encoding is byte-identical to the single-node answer — for every
// registered algorithm, every cluster size, and with a worker dying
// mid-shard.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/minertest"
)

// distAlgorithms are the nine real miners (the registry also holds
// test-only fakes registered by sibling test files).
var distAlgorithms = []string{
	"apriori", "closed", "closedrows", "eclat",
	"fpgrowth", "fusion", "maximal", "seqfusion", "topk",
}

// startWorkers spins n in-process worker pfserves and returns their base
// URLs for a coordinator's Peers list.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		mgr := NewManager(Config{Workers: 2})
		ts := httptest.NewServer(Handler(mgr))
		t.Cleanup(func() {
			ts.Close()
			mgr.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// distSpec is the shared conformance workload: the random transaction
// database and option set the engine's parallelism and shard conformance
// tests pin, so failures here isolate the transport/merge layer.
func distSpec(alg string) JobSpec {
	return JobSpec{
		Algorithm: alg,
		Dataset:   DatasetSpec{Generator: "random", Txns: 60, Items: 24, Density: 0.4, Seed: 3},
		Options:   engine.Options{MinCount: 4, K: 20, MinSize: 1, MaxSize: 4, Seed: 7},
	}
}

// awaitReport polls the job to completion and returns its report,
// failing the test on any terminal state but done.
func awaitReport(t *testing.T, m *Manager, id string) *engine.Report {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		snap := m.Snapshot(j)
		if snap.State.Terminal() {
			if snap.State != StateDone {
				t.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
			}
			rep, ok := m.Report(j)
			if !ok {
				t.Fatalf("job %s done without a report", id)
			}
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, snap.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// singleNodeHashes mines the conformance workload locally (no peers)
// once per algorithm and returns the canonical report hashes.
func singleNodeHashes(t *testing.T) map[string]string {
	t.Helper()
	single := NewManager(Config{Workers: 2})
	t.Cleanup(single.Close)
	want := make(map[string]string)
	for _, alg := range distAlgorithms {
		j, err := single.Submit(distSpec(alg), nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		want[alg] = engine.ReportHash(awaitReport(t, single, j.ID))
	}
	return want
}

// TestDistributedConformance pins the distributed guarantee: 1
// coordinator with N workers ≡ single node, byte for byte, for every
// algorithm at N ∈ {1, 2, 3}, each leased as task-block shards of its
// plan — fusion and apriori as one shard of one unit.
func TestDistributedConformance(t *testing.T) {
	want := singleNodeHashes(t)
	for _, n := range []int{1, 2, 3} {
		coord := NewManager(Config{Workers: 2, Peers: startWorkers(t, n)})
		t.Cleanup(coord.Close)
		for _, alg := range distAlgorithms {
			j, err := coord.Submit(distSpec(alg), nil)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			rep := awaitReport(t, coord, j.ID)
			if got := engine.ReportHash(rep); got != want[alg] {
				t.Errorf("%s with %d workers: report hash %s, want %s", alg, n, got, want[alg])
			}
		}
	}
}

// TestDistributedShardEvents asserts the coordinator's event log tells
// the distributed story: its own lease lifecycle plus the workers'
// forwarded progress, every remote event tagged with its shard and peer.
func TestDistributedShardEvents(t *testing.T) {
	coord := NewManager(Config{Workers: 2, Peers: startWorkers(t, 2)})
	t.Cleanup(coord.Close)
	j, err := coord.Submit(distSpec("eclat"), nil)
	if err != nil {
		t.Fatal(err)
	}
	awaitReport(t, coord, j.ID)
	events, _, _ := coord.EventsSince(j, 0)
	leased, done, tagged := 0, 0, 0
	for _, e := range events {
		switch e.Phase {
		case engine.PhaseShardLeased:
			leased++
		case engine.PhaseShardDone:
			done++
		}
		if e.Shard != "" && e.Peer != "" {
			tagged++
		}
	}
	if leased < 2 || done != leased {
		t.Errorf("want >= 2 shards leased and all done, got leased=%d done=%d", leased, done)
	}
	if tagged == 0 {
		t.Error("no events carry shard/peer tags")
	}
}

// TestDistributedDegeneratePlan pins that a coordinator answers a plan
// of no task units from its own root work: on an 8-row nested chain
// (closedrows and maximal plan 0 units there), the job hashes equal to
// the single-node run and leases nothing.
func TestDistributedDegeneratePlan(t *testing.T) {
	var chain [][]int
	for i := 1; i <= 8; i++ {
		row := make([]int, i)
		for j := range row {
			row[j] = j
		}
		chain = append(chain, row)
	}
	single := NewManager(Config{Workers: 2})
	t.Cleanup(single.Close)
	coord := NewManager(Config{Workers: 2, Peers: startWorkers(t, 1)})
	t.Cleanup(coord.Close)
	for _, alg := range []string{"closedrows", "maximal"} {
		spec := JobSpec{
			Algorithm: alg,
			Dataset:   DatasetSpec{Transactions: chain},
			Options:   engine.Options{MinCount: 2, K: 20, MinSize: 1, MaxSize: 4, Seed: 7, Parallelism: 2},
		}
		sj, err := single.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		cj, err := coord.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := engine.ReportHash(awaitReport(t, single, sj.ID))
		if got := engine.ReportHash(awaitReport(t, coord, cj.ID)); got != want {
			t.Errorf("%s: coordinator hash %s, want %s", alg, got, want)
		}
		events, _, _ := coord.EventsSince(cj, 0)
		for _, e := range events {
			if e.Phase == engine.PhaseShardLeased {
				t.Errorf("%s: coordinator leased shard %s of a plan with no units", alg, e.Shard)
			}
		}
	}
}

// flakyWorker fronts a real worker and simulates its death mid-shard:
// the first event stream it serves is aborted mid-read, and every
// request after that fails — the coordinator must quarantine it and
// re-lease the lost shard onto the surviving peer.
type flakyWorker struct {
	inner  http.Handler
	mu     sync.Mutex
	killed bool
	dead   bool
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	kill := false
	if !f.killed && strings.HasSuffix(r.URL.Path, "/events") {
		f.killed, f.dead, kill = true, true, true
	}
	dead := f.dead && !kill
	f.mu.Unlock()
	if kill {
		panic(http.ErrAbortHandler) // cut the connection mid-stream
	}
	if dead {
		http.Error(w, "worker is gone", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestDistributedWorkerFailure pins fault tolerance without losing
// byte-identity: one of two workers dies while holding a shard; the
// coordinator retries it on the survivor and the merged Report still
// hashes identically to the single-node run.
func TestDistributedWorkerFailure(t *testing.T) {
	want := singleNodeHashes(t)["eclat"]

	healthy := startWorkers(t, 1)
	victim := NewManager(Config{Workers: 2})
	flaky := httptest.NewServer(&flakyWorker{inner: Handler(victim)})
	t.Cleanup(func() {
		flaky.Close()
		victim.Close()
	})

	coord := NewManager(Config{Workers: 2, Peers: []string{flaky.URL, healthy[0]}})
	t.Cleanup(coord.Close)
	j, err := coord.Submit(distSpec("eclat"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := awaitReport(t, coord, j.ID)
	if got := engine.ReportHash(rep); got != want {
		t.Errorf("report hash after worker failure %s, want %s", got, want)
	}
	events, _, _ := coord.EventsSince(j, 0)
	retried := 0
	for _, e := range events {
		if e.Phase == engine.PhaseShardRetry {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no shard-retry events: the failure was not exercised")
	}
}

// lyingWorker fronts a real worker and rewrites the "algorithm" of the
// first result it serves — a buggy or hostile peer answering for a job
// it was not leased.
type lyingWorker struct {
	inner http.Handler
	mu    sync.Mutex
	lied  bool
}

func (l *lyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	lie := !l.lied && strings.HasSuffix(r.URL.Path, "/result")
	l.lied = l.lied || lie
	l.mu.Unlock()
	if !lie {
		l.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	l.inner.ServeHTTP(rec, r)
	var body map[string]any
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body["algorithm"] = "closed"
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rec.Code)
	json.NewEncoder(w).Encode(body)
}

// TestDistributedRejectsWrongAlgorithm pins that a coordinator checks
// whose answer a peer returned: a shard result naming another algorithm
// fails its lease, the shard is re-leased, and the merged Report still
// hashes identically to the single-node run.
func TestDistributedRejectsWrongAlgorithm(t *testing.T) {
	want := singleNodeHashes(t)["eclat"]

	victim := NewManager(Config{Workers: 2})
	lying := httptest.NewServer(&lyingWorker{inner: Handler(victim)})
	t.Cleanup(func() {
		lying.Close()
		victim.Close()
	})

	coord := NewManager(Config{Workers: 2, Peers: []string{lying.URL}})
	t.Cleanup(coord.Close)
	j, err := coord.Submit(distSpec("eclat"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := awaitReport(t, coord, j.ID)
	if got := engine.ReportHash(rep); got != want {
		t.Errorf("report hash after a wrong-algorithm answer %s, want %s", got, want)
	}
	events, _, _ := coord.EventsSince(j, 0)
	retried := 0
	for _, e := range events {
		if e.Phase == engine.PhaseShardRetry {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no shard-retry events: the wrong-algorithm answer was accepted")
	}
}

// TestShardLeaseCanceledDuringRoot pins that cancellation during a
// miner's root work ends a lease or a coordinated job partial,
// never failed. A plan canceled mid-root carries a truncated unit count
// (closedrows' dispatcher and seqfusion's pool poll ctx): a lease
// comparing it with the coordinator's count would report a spurious
// drift, and a coordinator must not cut shards from it.
func TestShardLeaseCanceledDuringRoot(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	t.Cleanup(worker.Close)
	coord := NewManager(Config{Workers: 2, Peers: startWorkers(t, 1)})
	t.Cleanup(coord.Close)
	stoppedInRoot := map[string]bool{}
	for _, alg := range distAlgorithms {
		s, _ := engine.Get(alg)
		spec := distSpec(alg)
		d, err := spec.Dataset.build(worker.cfg, worker.catalog)
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.Plan(context.Background(), d, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 2, 5} {
			plan, err := s.Plan(minertest.CancelAfter(k), d, spec.Options)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Root.Stopped {
				if plan.Units != full.Units {
					t.Errorf("%s, cancel after %d polls: %d units without a stopped root, want %d", alg, k, plan.Units, full.Units)
				}
			} else {
				stoppedInRoot[alg] = true
				j := &Job{JobRecord: JobRecord{Spec: spec}}
				rep, err := coord.mine(minertest.CancelAfter(k), j)
				if err != nil || !rep.Stopped {
					t.Errorf("%s, cancel after %d polls: coordinator returned %v, err %v; want a stopped report", alg, k, rep, err)
				}
				for _, e := range j.events {
					if e.Phase == engine.PhaseShardLeased {
						t.Errorf("%s, cancel after %d polls: coordinator leased a shard of a truncated plan", alg, k)
						break
					}
				}
			}
			lease := spec
			lease.Shard = &ShardSpec{Lo: 0, Hi: full.Units, Units: full.Units}
			rep, err := worker.mine(minertest.CancelAfter(k), &Job{JobRecord: JobRecord{Spec: lease}})
			if err != nil || !rep.Stopped {
				t.Errorf("%s, cancel after %d polls: lease returned %v, err %v; want a stopped report", alg, k, rep, err)
			}
		}
	}
	for _, alg := range []string{"closedrows", "seqfusion"} {
		if !stoppedInRoot[alg] {
			t.Errorf("%s: no cancellation landed in the root work", alg)
		}
	}
}
