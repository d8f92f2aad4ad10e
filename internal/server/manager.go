// Package server implements the pfserve job subsystem: a bounded-
// concurrency manager that runs any engine-registered algorithm as an
// asynchronous job with deadline + cancellation, structured progress
// events, and capped in-flight datasets, plus the HTTP JSON API over it.
//
// Lifecycle: POST /jobs validates the spec and enqueues; a fixed pool of
// worker goroutines dequeues, materializes the dataset (so at most
// `workers` datasets are ever resident), and runs the algorithm under a
// per-job context (Handler lists the endpoints). Every job state change
// (submit, start, cancel while queued, the shutdown checkpoint, finish,
// startup resume) goes through one method, transitionLocked, which also
// persists and counts it; the gauges that restate the manager's tables
// are read from them at scrape time.
//
// Production hardening adds three optional layers (all nil-safe, so the
// in-memory single-tenant behavior is unchanged when they are off):
//
//   - Persistence (Config.Store): write-ahead job records + results and
//     a durable catalog manifest under the server's data directory, with
//     crash recovery at startup — see Store.
//   - Multi-tenancy (Config.Auth): per-tenant API keys and admission
//     quotas (max active jobs, catalog byte budget) — see Auth.
//   - Observability (Config.Metrics): Prometheus instruments fed by the
//     engine's Observer event stream — see Metrics.
package server

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle states: queued → running → done/failed/canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of concurrent job runners — and therefore the
	// cap on in-flight (materialized) datasets. Defaults to 2.
	Workers int
	// QueueDepth bounds the backlog of queued jobs; submissions beyond it
	// are rejected. Defaults to 16. Jobs recovered from the Store at
	// startup do not count against it.
	QueueDepth int
	// MaxCells caps the memory model of any job's dataset:
	// |D|·|I| plus a fixed per-universe-item overhead charge (see
	// itemOverheadCells — sparse huge item IDs cost real allocations even
	// with few transactions). Larger datasets are rejected at submission
	// when the shape is known, or fail the job at start otherwise.
	// Defaults to 64M cells; negative means unlimited.
	MaxCells int
	// DefaultTimeout bounds a job's run time when the request does not
	// set one; a request timeout is clamped to this value. Defaults to
	// 5 minutes.
	DefaultTimeout time.Duration
	// DataDir, when non-empty, allows {"path": ...} dataset specs
	// resolved inside this directory. Empty disables path loading.
	DataDir string
	// MaxParallelism caps each job's Options.Parallelism. Zero selects
	// the server's per-job CPU budget, max(1, GOMAXPROCS/Workers), so
	// Workers concurrent jobs cannot oversubscribe the machine; negative
	// means uncapped. Capping never changes a job's mined patterns —
	// every algorithm is bit-identical across Parallelism — only how many
	// cores the job may use.
	MaxParallelism int
	// MaxEvents bounds the per-job event log; older events are dropped
	// (the log keeps a running first-sequence offset). Defaults to 1024.
	MaxEvents int
	// MaxUploadBytes caps one PUT /datasets/{name} body. Defaults to
	// 32 MiB; negative disables uploads.
	MaxUploadBytes int64
	// MaxAppendBytes caps one POST /datasets/{name}/rows chunk.
	// Defaults to MaxUploadBytes; negative disables appends.
	MaxAppendBytes int64
	// Store, when non-nil, makes the manager restart-safe: job records
	// are written ahead of acknowledgment, results and the dataset
	// catalog are persisted, and NewManager recovers all of it —
	// completed results reload, queued and crash-interrupted jobs
	// re-enqueue. Nil keeps everything in memory.
	Store *Store
	// Auth, when non-nil, holds the tenant set for API-key
	// authentication and per-tenant admission quotas. Nil is open mode:
	// one implicit anonymous tenant, no quotas.
	Auth *Auth
	// Metrics receives the server's Prometheus instruments; nil makes
	// NewManager create a private registry (never nil afterwards).
	Metrics *Metrics
	// Peers, when non-empty, turns this server into a distributed
	// coordinator: ordinary jobs are split into task-block shards and
	// leased to these pfserve base URLs over the standard job API (see
	// distributed.go). Jobs that are themselves shard leases always run
	// locally, so workers never re-distribute.
	Peers []string
	// ShardsPerPeer bounds the concurrent shard leases per peer (and
	// sizes the plan: up to len(Peers)*ShardsPerPeer shards). Defaults
	// to 2.
	ShardsPerPeer int
	// ShardTimeout bounds one shard lease attempt; zero leaves attempts
	// bounded only by the job's own deadline.
	ShardTimeout time.Duration
	// ShardRetries caps the re-leases of one shard after failed
	// attempts. Defaults to 3.
	ShardRetries int
	// PeerAPIKey, when non-empty, authenticates coordinator→peer calls
	// (sent as X-API-Key).
	PeerAPIKey string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxCells == 0 {
		c.MaxCells = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1024
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = MaxBodyBytes
	}
	if c.MaxAppendBytes == 0 {
		c.MaxAppendBytes = c.MaxUploadBytes
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.MaxParallelism < 1 {
			c.MaxParallelism = 1
		}
	}
	if c.ShardsPerPeer <= 0 {
		c.ShardsPerPeer = 2
	}
	if c.ShardRetries <= 0 {
		c.ShardRetries = 3
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c
}

// Job is one mining job: its durable record plus the run-time state
// that is never persisted. All mutable state is guarded by its
// Manager's mutex; events additionally signal the Manager's cond for
// streamers.
type Job struct {
	JobRecord

	report     *engine.Report
	events     []engine.Event
	eventsBase int // sequence number of events[0]
	cancel     context.CancelFunc
	userCancel bool
}

// Manager owns the job table, the bounded queue, the worker pool, and
// the dataset catalog.
type Manager struct {
	cfg      Config
	catalog  *Catalog
	metrics  *Metrics
	mu       sync.Mutex
	cond     *sync.Cond // broadcast on any job state/event change
	jobs     map[string]*Job
	monitors map[string]*monitor // dataset name → append-triggered re-mine policy
	queue    chan *Job
	next     int
	draining bool
	closed   bool
	wg       sync.WaitGroup
	root     context.Context
	stop     context.CancelFunc
}

// Catalog returns the manager's dataset catalog.
func (m *Manager) Catalog() *Catalog { return m.catalog }

// Metrics returns the manager's instrument bundle (never nil).
func (m *Manager) Metrics() *Metrics { return m.cfg.Metrics }

// NewManager starts a manager with cfg.Workers runner goroutines. With
// cfg.Store set it first recovers durable state: catalog entries are
// re-ingested from their blobs, terminal jobs reload with their
// persisted results, and queued or crash-interrupted ("running" on
// disk) jobs are re-enqueued in original submission order — the
// engine's determinism contract makes re-running them safe. Recovery
// problems (a corrupt record, a missing blob) are logged and skipped,
// never fatal.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		catalog:  newCatalog(cfg.MaxCells, cfg.Store, cfg.Metrics),
		jobs:     make(map[string]*Job),
		monitors: make(map[string]*monitor),
		root:     root,
		stop:     stop,
	}
	m.cond = sync.NewCond(&m.mu)

	var resume []*Job
	if m.cfg.Store != nil {
		for _, w := range m.catalog.restore() {
			log.Printf("server: catalog recovery: %s", w)
		}
		recs, warns, err := m.cfg.Store.LoadJobs()
		if err != nil {
			log.Printf("server: job recovery: %v", err)
		}
		for _, w := range warns {
			log.Printf("server: job recovery: %s", w)
		}
		for _, rec := range recs {
			j := &Job{JobRecord: rec}
			if j.State.Terminal() {
				if j.report, _, err = m.cfg.Store.LoadResult(j.ID); err != nil {
					log.Printf("server: loading result of %s: %v", j.ID, err)
				}
			}
			m.jobs[j.ID] = j
			if j.Seq > m.next {
				m.next = j.Seq
			}
			// A done job whose result is unreadable re-runs rather than
			// answering 409 forever.
			if !j.State.Terminal() || (j.State == StateDone && j.report == nil) {
				resume = append(resume, j)
			}
		}
	}

	m.queue = make(chan *Job, cfg.QueueDepth+len(resume))
	for _, j := range resume {
		m.transitionLocked(j, StateQueued)
		m.queue <- j
		m.metrics.JobsResumed.Inc()
	}
	m.metrics.reg.OnScrape(m.sampleGauges)

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels every job, stops the workers, and waits for them. It is
// the hard stop: running jobs are cut off and their durable records are
// checkpointed back to queued (see run), so with a Store they resume on
// the next start. Idempotent.
func (m *Manager) Close() {
	m.stop()
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	for _, j := range m.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Shutdown stops the manager gracefully: admission stops immediately
// (Submit returns ErrDraining), queued and running jobs are given until
// ctx expires to finish — their results are persisted as they complete
// — and whatever remains is then canceled and checkpointed back to
// queued in the job store, to be resumed by the next start. It returns
// the number of jobs that were still unfinished (checkpointed or, with
// no Store, lost).
func (m *Manager) Shutdown(ctx context.Context) int {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		m.mu.Lock()
		defer m.mu.Unlock()
		for m.root.Err() == nil && m.activeLocked("") > 0 {
			m.cond.Wait()
		}
	}()
	select {
	case <-drained:
	case <-ctx.Done():
	}
	m.Close() // cancels stragglers; run() checkpoints them to queued
	<-drained // Close broadcast + root cancel release the waiter

	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeLocked("")
}

// activeLocked counts the non-terminal jobs of tenant, or of every
// tenant when it is "". Caller holds mu.
func (m *Manager) activeLocked(tenant string) int {
	n := 0
	for _, j := range m.jobs {
		if !j.State.Terminal() && (tenant == "" || j.Tenant == tenant) {
			n++
		}
	}
	return n
}

// tenantName normalizes a possibly-nil tenant to its metrics/record
// label.
func tenantName(t *Tenant) string {
	if t == nil {
		return AnonymousTenant
	}
	return t.Name
}

// ErrQueueFull is returned by Submit when the backlog is at QueueDepth.
var ErrQueueFull = fmt.Errorf("server: job queue is full")

// ErrDraining is returned by Submit once Shutdown has begun: the server
// finishes its backlog but admits nothing new.
var ErrDraining = fmt.Errorf("server: shutting down, not accepting jobs")

// Submit validates spec and enqueues a new job on behalf of tenant
// (nil = anonymous, no quota). It returns an error when the spec is
// invalid, a *QuotaError when the tenant is at its active-job quota,
// ErrQueueFull when the backlog is at QueueDepth, and ErrDraining
// during shutdown. With a Store, the job record is persisted before
// Submit returns — the write-ahead guarantee: an acknowledged job is
// never lost to a crash.
func (m *Manager) Submit(spec JobSpec, tenant *Tenant) (*Job, error) {
	if err := spec.validate(m.cfg, m.catalog); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.root.Err() != nil || m.draining {
		return nil, ErrDraining
	}
	name := tenantName(tenant)
	if tenant != nil && tenant.MaxActiveJobs > 0 && m.activeLocked(name) >= tenant.MaxActiveJobs {
		m.metrics.AuthRejections.Inc("job_quota")
		return nil, &QuotaError{
			Msg:        fmt.Sprintf("server: tenant %q is at its quota of %d active jobs", name, tenant.MaxActiveJobs),
			RetryAfter: 1,
		}
	}
	// Only Submit sends on the queue after start-up, and it holds mu, so
	// this room check cannot go stale before the send below: a rejected
	// job never reaches the store.
	if len(m.queue) == cap(m.queue) {
		m.metrics.AuthRejections.Inc("queue_full")
		return nil, ErrQueueFull
	}
	m.next++
	j := &Job{JobRecord: JobRecord{
		ID:     fmt.Sprintf("job-%d", m.next),
		Seq:    m.next,
		Tenant: name,
		Spec:   spec,
	}}
	// Write-ahead: the record must be durable before the job is visible
	// anywhere else; a crash after this point re-enqueues it at startup.
	if err := m.transitionLocked(j, StateQueued); err != nil {
		m.next--
		return nil, fmt.Errorf("server: persisting job record: %w", err)
	}
	m.queue <- j
	m.jobs[j.ID] = j
	return j, nil
}

// transitionLocked moves j to state to; it is the only place a job
// changes state. It stamps the lifecycle timestamps (entering queued
// discards any previous run), stores the result (if any) and then the
// record, counts the entry in pfserve_jobs_total (a re-queue by the
// shutdown checkpoint or the startup resume is not a new entry) and
// wakes waiters. Store failures are logged and counted; a new job whose
// write-ahead record fails is not admitted, and the error is returned.
// The caller holds mu and sets Error or the report first.
func (m *Manager) transitionLocked(j *Job, to State) error {
	from := j.State
	now := time.Now()
	j.State = to
	switch to {
	case StateQueued:
		if from == "" {
			j.Created = now
		}
		j.Started, j.Ended, j.Error = time.Time{}, time.Time{}, ""
		j.events, j.eventsBase, j.cancel = nil, 0, nil
	case StateRunning:
		j.Started = now
	default:
		j.Ended = now
	}
	if m.cfg.Store != nil {
		// Result before record: a record that says "done" must always find
		// its result on disk (recovery demotes it otherwise).
		if j.report != nil {
			if err := m.cfg.Store.SaveResult(j.ID, j.report); err != nil {
				m.metrics.storeFailed("result", j.ID, err)
			}
		}
		if err := m.cfg.Store.SaveJob(j.JobRecord); err != nil {
			m.metrics.storeFailed("job", j.ID, err)
			if from == "" {
				return err
			}
		}
	}
	if to != StateQueued || from == "" {
		m.metrics.JobsTotal.Inc(string(to), j.Tenant)
	}
	m.cond.Broadcast()
	return nil
}

// sampleGauges is the scrape hook that sets the gauges restating the
// manager's tables from the tables, so they cannot drift.
func (m *Manager) sampleGauges() {
	datasets := m.catalog.size()
	m.mu.Lock()
	jobs := make(map[State]int)
	for _, j := range m.jobs {
		jobs[j.State]++
	}
	depth, monitors := len(m.queue), len(m.monitors)
	m.mu.Unlock()
	m.metrics.JobsActive.Set(float64(jobs[StateQueued]), string(StateQueued))
	m.metrics.JobsActive.Set(float64(jobs[StateRunning]), string(StateRunning))
	m.metrics.QueueDepth.Set(float64(depth))
	m.metrics.Monitors.Set(float64(monitors))
	m.metrics.CatalogDatasets.Set(float64(datasets))
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a queued or running job (returning true); canceling a
// terminal or unknown job returns false.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.State.Terminal() {
		return false
	}
	j.userCancel = true
	if j.State == StateQueued {
		// The worker skips it when it dequeues.
		m.transitionLocked(j, StateCanceled)
	}
	if j.cancel != nil {
		j.cancel() // run records the end once the miner returns
	}
	return true
}

// Remove deletes a terminal job's record (and its durable files),
// returning false for active or unknown jobs.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !j.State.Terminal() {
		return false
	}
	delete(m.jobs, id)
	if m.cfg.Store != nil {
		if err := m.cfg.Store.DeleteJob(id); err != nil {
			m.metrics.storeFailed("delete", id, err)
		}
	}
	return true
}

// Jobs snapshots all jobs, most recent first (by submission sequence, so
// the order is deterministic even for same-instant submissions).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq > out[k].Seq })
	return out
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job: materialize the dataset, then mine under a
// per-job deadline context. A run cut short by server shutdown (rather
// than by its own deadline or a user cancel) is checkpointed back to
// queued — durable record included — so a restart re-runs it; the
// determinism contract makes the re-run byte-identical.
func (m *Manager) run(j *Job) {
	m.mu.Lock()
	if j.State != StateQueued || m.root.Err() != nil {
		// Canceled while queued; or shutdown began before this job
		// started, and its durable record already says queued, so it is
		// left for the next start instead of materializing a dataset
		// only to cancel the mine.
		m.mu.Unlock()
		return
	}
	timeout := m.cfg.DefaultTimeout
	if t := j.Spec.timeout(); t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(m.root, timeout)
	j.cancel = cancel
	m.transitionLocked(j, StateRunning)
	m.mu.Unlock()
	defer cancel()

	started := time.Now()
	rep, err := m.mine(ctx, j)
	elapsed := time.Since(started)
	if rep != nil {
		rep.Pool = nil // nothing reads a served job's warm-start pool
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.root.Err() != nil && !j.userCancel && err == nil {
		// Shutdown interruption: drop the partial run and checkpoint the
		// job back to queued for the next start.
		m.transitionLocked(j, StateQueued)
		return
	}
	var to State
	switch {
	case err != nil:
		to, j.Error = StateFailed, err.Error()
	case j.userCancel:
		to, j.report = StateCanceled, rep // partial results stay retrievable
	default:
		to, j.report = StateDone, rep
	}
	m.metrics.observeMine(j.Spec.Algorithm, elapsed)
	m.transitionLocked(j, to)
	if j.Spec.Monitor != "" {
		m.harvestMonitorLocked(j)
	}
}

// mine materializes the job's dataset and runs its algorithm. A panic
// anywhere below (a generator bound, a miner edge case) is confined to
// this job — the worker goroutine has no net/http recover above it, so
// without this a single malformed job would crash the whole server.
func (m *Manager) mine(ctx context.Context, j *Job) (rep *engine.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("server: job panicked: %v", r)
		}
	}()
	alg, err := engine.Get(j.Spec.Algorithm)
	if err != nil {
		return nil, err
	}
	d, err := j.Spec.Dataset.build(m.cfg, m.catalog)
	if err != nil {
		return nil, err
	}
	opts := j.Spec.Options
	// Cap the job's worker count at the server's per-job CPU budget
	// (0 = all CPUs would let one job claim the whole machine; negatives
	// are rejected at submission, so <= 0 here is the defensive form).
	if max := m.cfg.MaxParallelism; max > 0 && (opts.Parallelism <= 0 || opts.Parallelism > max) {
		opts.Parallelism = max
	}
	// One stream of events, two sinks: the job's event log and the
	// Prometheus event counter — which is what makes the /metrics
	// counters reconcile with the event log by construction.
	opts.Observer = engine.FanOut(
		func(e engine.Event) { m.appendEvent(j, e) },
		engine.CountEvents(m.metrics.EventsTotal),
	)
	// Three execution shapes. A shard lease (Spec.Shard != nil) always
	// runs locally as one raw task-block partial — never re-distributed,
	// so a mis-wired peer ring cannot recurse. Otherwise, with Peers
	// configured this server is a coordinator and fans the job out.
	if sh := j.Spec.Shard; sh != nil {
		plan, err := alg.Plan(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		return plan.MineShard(ctx, sh.Lo, sh.Hi, sh.Units)
	}
	if len(m.cfg.Peers) > 0 {
		return m.mineDistributed(ctx, j, alg, d, opts)
	}
	return alg.Mine(ctx, d, opts)
}

func (m *Manager) appendEvent(j *Job, e engine.Event) {
	e.Pool = nil // never retain live miner state
	m.mu.Lock()
	j.events = append(j.events, e)
	// Trim in batches: let the log grow to 2×MaxEvents, then drop back to
	// MaxEvents, so a long job pays one copy per MaxEvents events instead
	// of one per event.
	if len(j.events) >= 2*m.cfg.MaxEvents {
		over := len(j.events) - m.cfg.MaxEvents
		j.events = append(j.events[:0:0], j.events[over:]...)
		j.eventsBase += over
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Snapshot is a consistent copy of a job's externally visible state.
type Snapshot struct {
	ID        string        `json:"id"`
	Algorithm string        `json:"algorithm"`
	State     State         `json:"state"`
	Error     string        `json:"error,omitempty"`
	Tenant    string        `json:"tenant,omitempty"`
	Created   time.Time     `json:"created_at"`
	Started   *time.Time    `json:"started_at,omitempty"`
	Ended     *time.Time    `json:"ended_at,omitempty"`
	Events    int           `json:"events"`
	Progress  *engine.Event `json:"progress,omitempty"`
	Patterns  int           `json:"patterns"`
	Stopped   bool          `json:"stopped"`
}

// Snapshot renders the job's current status.
func (m *Manager) Snapshot(j *Job) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Algorithm: j.Spec.Algorithm,
		State:     j.State,
		Error:     j.Error,
		Tenant:    j.Tenant,
		Created:   j.Created,
		Events:    j.eventsBase + len(j.events),
	}
	if !j.Started.IsZero() {
		t := j.Started
		s.Started = &t
	}
	if !j.Ended.IsZero() {
		t := j.Ended
		s.Ended = &t
	}
	if n := len(j.events); n > 0 {
		e := j.events[n-1]
		s.Progress = &e
	}
	if j.report != nil {
		s.Patterns = len(j.report.Patterns)
		s.Stopped = j.report.Stopped
	}
	return s
}

// Report returns the job's report once terminal; ok is false while the
// job is still queued or running, or when it failed without a report.
func (m *Manager) Report(j *Job) (*engine.Report, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !j.State.Terminal() || j.report == nil {
		return nil, false
	}
	return j.report, true
}

// EventsSince returns the events with sequence number >= seq plus the
// sequence number of the first returned event, and whether the job can
// still produce more.
func (m *Manager) EventsSince(j *Job, seq int) (events []engine.Event, first int, more bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq < j.eventsBase {
		seq = j.eventsBase
	}
	if idx := seq - j.eventsBase; idx < len(j.events) {
		events = append(events, j.events[idx:]...)
	}
	return events, seq, !j.State.Terminal()
}

// WaitEvents blocks until the job has an event with sequence >= seq or
// becomes terminal, or ctx is done. It exists for the NDJSON streamer.
func (m *Manager) WaitEvents(ctx context.Context, j *Job, seq int) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
			return
		}
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}()
	defer close(done)
	m.mu.Lock()
	defer m.mu.Unlock()
	for ctx.Err() == nil && !j.State.Terminal() && j.eventsBase+len(j.events) <= seq {
		m.cond.Wait()
	}
}
