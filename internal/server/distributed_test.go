// Distributed conformance: a coordinator fanning a job out across N
// in-process worker pfserves must produce a Report whose canonical
// encoding is byte-identical to the single-node answer — for every
// registered algorithm, every cluster size, and with a worker dying
// mid-shard.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
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
		Dataset:   DatasetSpec{Spec: datagen.Spec{Generator: "random", Txns: 60, Items: 24, Density: 0.4, Seed: 3}},
		Options:   engine.Options{MinCount: 4, K: 20, MinSize: 1, MaxSize: 4, Seed: 7},
	}
}

// awaitReport polls the job to completion and returns its report,
// failing the test on any terminal state but done.
func awaitReport(t *testing.T, m *Manager, id string) *engine.Report {
	t.Helper()
	if snap := awaitTerminal(t, m, id); snap.State != StateDone {
		t.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
	}
	j, _ := m.Get(id)
	rep, ok := m.Report(j)
	if !ok {
		t.Fatalf("job %s done without a report", id)
	}
	return rep
}

// awaitTerminal polls the job until it is terminal and returns its
// snapshot, whatever the end state.
func awaitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap := m.Snapshot(j); snap.State.Terminal() {
			return snap
		} else if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, snap.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// singleNodeReports mines the conformance workload locally (no peers)
// once per algorithm and returns the reports and their event logs.
func singleNodeReports(t *testing.T) (map[string]*engine.Report, map[string][]engine.Event) {
	t.Helper()
	single := NewManager(Config{Workers: 2})
	t.Cleanup(single.Close)
	reps := make(map[string]*engine.Report)
	events := make(map[string][]engine.Event)
	for _, alg := range distAlgorithms {
		j, err := single.Submit(distSpec(alg), nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		reps[alg] = awaitReport(t, single, j.ID)
		events[alg], _, _ = single.EventsSince(j, 0)
	}
	return reps, events
}

// singleNodeHashes is singleNodeReports reduced to the report hashes.
func singleNodeHashes(t *testing.T) map[string]string {
	t.Helper()
	reps, _ := singleNodeReports(t)
	want := make(map[string]string)
	for alg, rep := range reps {
		want[alg] = engine.ReportHash(rep)
	}
	return want
}

// eventShape checks that a job's event log has a local run's shape:
// exactly one untagged start, first, and exactly one untagged done,
// last. Forwarded peer events and the coordinator's lease events carry
// shard and peer tags and do not count.
func eventShape(events []engine.Event) error {
	starts, dones := 0, 0
	for _, e := range events {
		if e.Shard != "" || e.Peer != "" {
			continue
		}
		switch e.Phase {
		case engine.PhaseStart:
			starts++
		case engine.PhaseDone:
			dones++
		}
	}
	switch first, last := events[0], events[len(events)-1]; {
	case starts != 1 || dones != 1:
		return fmt.Errorf("%d untagged start and %d untagged done events, want 1 and 1", starts, dones)
	case first.Phase != engine.PhaseStart || first.Shard != "":
		return fmt.Errorf("first event is %+v, want the untagged start", first)
	case last.Phase != engine.PhaseDone || last.Shard != "":
		return fmt.Errorf("last event is %+v, want the untagged done", last)
	}
	return nil
}

// TestDistributedConformance is the differential test of a coordinated
// job against a local one: for every algorithm at N ∈ {1, 2, 3}
// workers, each leased as task-block shards of its plan (fusion and
// apriori as one shard of one unit), the Report hash and Quality equal
// the single-node run's and the event log has the local shape. A
// coordinated job canceled while its peer holds a shard (the peer
// stalls the shard's event stream) ends canceled and partial with the
// same shape: its one done comes last.
func TestDistributedConformance(t *testing.T) {
	local, localEvents := singleNodeReports(t)
	for _, alg := range distAlgorithms {
		if err := eventShape(localEvents[alg]); err != nil {
			t.Fatalf("%s single-node: %v", alg, err)
		}
	}
	for _, n := range []int{1, 2, 3} {
		coord := NewManager(Config{Workers: 2, Peers: startWorkers(t, n)})
		t.Cleanup(coord.Close)
		for _, alg := range distAlgorithms {
			j, err := coord.Submit(distSpec(alg), nil)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			rep := awaitReport(t, coord, j.ID)
			if got, want := engine.ReportHash(rep), engine.ReportHash(local[alg]); got != want {
				t.Errorf("%s with %d workers: report hash %s, want %s", alg, n, got, want)
			}
			if got, want := fmt.Sprint(rep.Quality), fmt.Sprint(local[alg].Quality); got != want {
				t.Errorf("%s with %d workers: Quality %s, want %s", alg, n, got, want)
			}
			events, _, _ := coord.EventsSince(j, 0)
			if err := eventShape(events); err != nil {
				t.Errorf("%s with %d workers: %v", alg, n, err)
			}
		}
	}

	inner := NewManager(Config{Workers: 2})
	h := Handler(inner)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			<-r.Context().Done() // hold the shard until the lease is abandoned
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		stall.Close()
		inner.Close()
	})
	coord := NewManager(Config{Workers: 2, Peers: []string{stall.URL}})
	t.Cleanup(coord.Close)
	for _, alg := range distAlgorithms {
		j, err := coord.Submit(distSpec(alg), nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for leased := false; !leased; time.Sleep(time.Millisecond) {
			events, _, _ := coord.EventsSince(j, 0)
			for _, e := range events {
				leased = leased || e.Phase == engine.PhaseShardLeased
			}
			if s := coord.Snapshot(j); s.State.Terminal() {
				t.Fatalf("%s: job ended %s before any lease", alg, s.State)
			}
		}
		coord.Cancel(j.ID)
		if s := awaitTerminal(t, coord, j.ID); s.State != StateCanceled || !s.Stopped {
			t.Errorf("%s canceled: job ended %s (stopped %v, error %q), want canceled and stopped", alg, s.State, s.Stopped, s.Error)
		}
		events, _, _ := coord.EventsSince(j, 0)
		if err := eventShape(events); err != nil {
			t.Errorf("%s canceled: %v", alg, err)
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
// drift, and a coordinator must not cut shards from it. The
// coordinator's partial answer is the local run's: the root's own.
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
					t.Fatalf("%s, cancel after %d polls: coordinator returned %v, err %v; want a stopped report", alg, k, rep, err)
				}
				local, err := s.Mine(minertest.CancelAfter(k), d, spec.Options)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := engine.ReportHash(rep), engine.ReportHash(local); got != want {
					t.Errorf("%s, cancel after %d polls: coordinator answered %s, the local run %s", alg, k, got, want)
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

// TestDistributedAllPeersDown pins the coordinator's give-up rule: when
// every peer fails until it is quarantined, the job fails with "all N
// peers are unavailable" instead of hanging or exhausting a shard's
// retries (which are set high enough here never to run out first).
func TestDistributedAllPeersDown(t *testing.T) {
	var peers []string
	for i := 0; i < 2; i++ {
		dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "worker is gone", http.StatusServiceUnavailable)
		}))
		t.Cleanup(dead.Close)
		peers = append(peers, dead.URL)
	}
	coord := NewManager(Config{Workers: 2, Peers: peers, ShardRetries: 10})
	t.Cleanup(coord.Close)
	j, err := coord.Submit(distSpec("eclat"), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := awaitTerminal(t, coord, j.ID)
	if snap.State != StateFailed || !strings.Contains(snap.Error, "all 2 peers are unavailable") {
		t.Errorf("job ended %s (%q), want failed with \"all 2 peers are unavailable\"", snap.State, snap.Error)
	}
}

// countingWorker fronts a real worker and records how many leases it
// holds at once: a lease is live from its accepted POST /jobs until the
// coordinator's DELETE of that job. Its event streams start late, so
// leases overlap, and it answers its first failSubmits submissions 503,
// which makes the coordinator re-lease those shards elsewhere.
type countingWorker struct {
	inner       http.Handler
	mu          sync.Mutex
	failSubmits int
	live, max   int
}

func (c *countingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		c.mu.Lock()
		fail := c.failSubmits > 0
		if fail {
			c.failSubmits--
		} else {
			c.live++
			c.max = max(c.max, c.live)
		}
		c.mu.Unlock()
		if fail {
			http.Error(w, "worker is busy", http.StatusServiceUnavailable)
			return
		}
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/jobs/"):
		c.mu.Lock()
		c.live--
		c.mu.Unlock()
	case strings.HasSuffix(r.URL.Path, "/events"):
		time.Sleep(30 * time.Millisecond)
	}
	c.inner.ServeHTTP(w, r)
}

// TestDistributedShardsPerPeerBound pins that ShardsPerPeer bounds the
// leases one peer holds at once, also when a retry lands on a busy peer:
// the second peer fails its first two submissions (and so is
// quarantined), its shards move to the first, and neither ever holds
// more than ShardsPerPeer leases. The answer still equals the
// single-node run.
func TestDistributedShardsPerPeerBound(t *testing.T) {
	want := singleNodeHashes(t)["eclat"]
	const perPeer = 2
	var workers []*countingWorker
	var peers []string
	for _, fails := range []int{0, 2} {
		inner := NewManager(Config{Workers: 4})
		cw := &countingWorker{inner: Handler(inner), failSubmits: fails}
		ts := httptest.NewServer(cw)
		t.Cleanup(func() {
			ts.Close()
			inner.Close()
		})
		workers = append(workers, cw)
		peers = append(peers, ts.URL)
	}
	coord := NewManager(Config{Workers: 2, Peers: peers, ShardsPerPeer: perPeer})
	t.Cleanup(coord.Close)
	j, err := coord.Submit(distSpec("eclat"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.ReportHash(awaitReport(t, coord, j.ID)); got != want {
		t.Errorf("report hash %s, want %s", got, want)
	}
	for i, cw := range workers {
		cw.mu.Lock()
		if cw.max > perPeer {
			t.Errorf("peer %d held %d leases at once, want <= %d", i, cw.max, perPeer)
		}
		if i == 0 && cw.max == 0 {
			t.Error("the healthy peer held no lease")
		}
		cw.mu.Unlock()
	}
}
