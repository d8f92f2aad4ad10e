package server

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ingest"
)

// MonitorSpec configures a dataset monitor: a standing re-mine policy
// that answers "tell me when a new colossal pattern appears in live
// traffic". Installed via PUT /datasets/{name}/monitor, it watches the
// streaming append endpoint and resubmits a mining job whenever enough
// new rows have accumulated.
type MonitorSpec struct {
	// Algorithm is the engine registry name to run; empty selects
	// "fusion".
	Algorithm string `json:"algorithm,omitempty"`
	// Options are the engine options of each triggered job.
	Options engine.Options `json:"options"`
	// ThresholdRows is the re-mine-on-threshold policy: a job fires once
	// at least this many rows arrived since the last trigger. Zero means
	// 1 — re-mine on every append.
	ThresholdRows int `json:"threshold_rows,omitempty"`
	// Window is the sliding-window policy: each job mines only the most
	// recent Window rows (a row-range transform pinned at trigger time).
	// Zero mines the full dataset.
	Window int `json:"window,omitempty"`
	// Incremental warm-starts each triggered fusion run from the
	// previous completed run's patterns (Options.Pool), skipping phase 1
	// — the cheap re-mine BenchmarkIncrementalMine quantifies. The first
	// run is cold. Warm results are the incremental approximation pinned
	// by the pool-containment conformance test: previously-found
	// patterns are re-validated and extended, while patterns over
	// genuinely new items wait for a cold run (reinstall the monitor to
	// reset). Fusion only.
	Incremental bool `json:"incremental,omitempty"`
}

// validate checks the spec and normalizes the empty algorithm.
func (ms *MonitorSpec) validate() error {
	if ms.Algorithm == "" {
		ms.Algorithm = "fusion"
	}
	if _, err := engine.Get(ms.Algorithm); err != nil {
		return err
	}
	if ms.ThresholdRows < 0 {
		return fmt.Errorf("server: monitor threshold_rows must be >= 0, got %d", ms.ThresholdRows)
	}
	if ms.Window < 0 {
		return fmt.Errorf("server: monitor window must be >= 0, got %d", ms.Window)
	}
	if err := ms.Options.Validate(); err != nil {
		return err
	}
	if ms.Incremental && ms.Algorithm != "fusion" {
		return fmt.Errorf("server: incremental monitors require the fusion algorithm, got %q", ms.Algorithm)
	}
	return nil
}

// monitor is the mutable per-dataset monitor state, guarded by the
// Manager's mutex. Monitors are in-memory only: they are not persisted
// (reinstall after a restart), matching the engine contract that warm
// pools are acceleration artifacts, never durable state.
type monitor struct {
	spec        MonitorSpec
	tenant      *Tenant // installing tenant; its quotas govern triggered jobs
	lastRows    int     // dataset rows when the last job fired (or at install)
	lastJobID   string
	runs        int     // completed (done) runs
	pool        [][]int // previous run's patterns, the warm-start seeds
	seen        map[string]bool
	newPatterns []resultPattern // patterns first seen in the latest run
	lastError   string
}

// MonitorStatus is the externally visible state of one monitor.
type MonitorStatus struct {
	Dataset string      `json:"dataset"`
	Spec    MonitorSpec `json:"spec"`
	Tenant  string      `json:"tenant,omitempty"`
	// RowsAtLastRun is the dataset size when the monitor last fired.
	RowsAtLastRun int `json:"rows_at_last_run"`
	// PendingRows counts appended rows not yet covered by a trigger.
	PendingRows int    `json:"pending_rows"`
	LastJobID   string `json:"last_job_id,omitempty"`
	// Runs counts completed (done) monitor jobs.
	Runs int `json:"runs"`
	// WarmSeeds is the size of the retained warm-start pool.
	WarmSeeds int `json:"warm_seeds"`
	// NewPatterns lists the patterns of the latest completed run that
	// the previous run did not report. The first run is the baseline and
	// reports none.
	NewPatterns []resultPattern `json:"new_patterns,omitempty"`
	LastError   string          `json:"last_error,omitempty"`
}

// SetMonitor installs (or replaces) the monitor for a catalog dataset.
// The current row count becomes the trigger baseline, so only rows
// appended after installation fire jobs.
func (m *Manager) SetMonitor(name string, spec MonitorSpec, t *Tenant) (MonitorStatus, error) {
	if err := spec.validate(); err != nil {
		return MonitorStatus{}, err
	}
	entry, ok := m.catalog.Get(name)
	if !ok {
		return MonitorStatus{}, fmt.Errorf("server: unknown catalog dataset %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mon := &monitor{spec: spec, tenant: t, lastRows: entry.Rows}
	m.monitors[name] = mon
	return m.monitorStatusLocked(name, mon, entry.Rows), nil
}

// MonitorStatus returns the named dataset's monitor state.
func (m *Manager) MonitorStatus(name string) (MonitorStatus, bool) {
	rows := 0
	if entry, ok := m.catalog.Get(name); ok {
		rows = entry.Rows
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mon, ok := m.monitors[name]
	if !ok {
		return MonitorStatus{}, false
	}
	return m.monitorStatusLocked(name, mon, rows), true
}

// DeleteMonitor removes the named dataset's monitor.
func (m *Manager) DeleteMonitor(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.monitors[name]; !ok {
		return false
	}
	delete(m.monitors, name)
	return true
}

// monitorStatusLocked renders one monitor. Caller holds mu.
func (m *Manager) monitorStatusLocked(name string, mon *monitor, rows int) MonitorStatus {
	pending := rows - mon.lastRows
	if pending < 0 {
		pending = 0
	}
	return MonitorStatus{
		Dataset:       name,
		Spec:          mon.spec,
		Tenant:        tenantName(mon.tenant),
		RowsAtLastRun: mon.lastRows,
		PendingRows:   pending,
		LastJobID:     mon.lastJobID,
		Runs:          mon.runs,
		WarmSeeds:     len(mon.pool),
		NewPatterns:   mon.newPatterns,
		LastError:     mon.lastError,
	}
}

// notifyAppend is the append → monitor hook: called after a successful
// append with the dataset's new row count, it fires the monitor's job
// when the threshold policy is met. One job at a time per monitor — a
// trigger while the previous job is still active is skipped (the rows
// stay pending and the next append retries). It returns the submitted
// job's ID, if any.
func (m *Manager) notifyAppend(name string, rows int) (jobID string, fired bool) {
	m.mu.Lock()
	mon := m.monitors[name]
	if mon == nil {
		m.mu.Unlock()
		return "", false
	}
	if rows < mon.lastRows {
		// The dataset shrank (replaced upload); re-baseline.
		mon.lastRows = rows
	}
	threshold := mon.spec.ThresholdRows
	if threshold < 1 {
		threshold = 1
	}
	if rows-mon.lastRows < threshold {
		m.mu.Unlock()
		return "", false
	}
	if mon.lastJobID != "" {
		if j, ok := m.jobs[mon.lastJobID]; ok && !j.State.Terminal() {
			m.metrics.MonitorJobs.Inc("skipped_busy")
			m.mu.Unlock()
			return "", false
		}
	}
	spec := monitorJobSpec(name, mon, rows)
	tenant := mon.tenant
	m.mu.Unlock()

	j, err := m.Submit(spec, tenant)

	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.monitors[name]; cur != mon {
		return "", false // replaced or removed while submitting
	}
	if err != nil {
		mon.lastError = err.Error()
		m.metrics.MonitorJobs.Inc("error")
		return "", false
	}
	mon.lastJobID = j.ID
	mon.lastRows = rows
	mon.lastError = ""
	m.metrics.MonitorJobs.Inc("submitted")
	return j.ID, true
}

// monitorJobSpec builds the job one trigger submits: the catalog
// dataset pinned to its trigger-time row range (the sliding window, or
// all rows — either way later appends cannot leak into this run), with
// warm-start seeds when the monitor is incremental and has a previous
// result.
func monitorJobSpec(name string, mon *monitor, rows int) JobSpec {
	opts := mon.spec.Options
	if mon.spec.Incremental && mon.pool != nil {
		opts.Pool = mon.pool
	}
	lo := 0
	if w := mon.spec.Window; w > 0 && rows > w {
		lo = rows - w
	}
	return JobSpec{
		Algorithm: mon.spec.Algorithm,
		Dataset: DatasetSpec{
			Catalog:   name,
			Transform: &ingest.TransformSpec{RowLo: lo, RowHi: rows},
		},
		Options: opts,
		Monitor: name,
	}
}

// harvestMonitorLocked is the job-completion hook: when a monitor's job
// reaches a terminal state, fold its outcome back into the monitor —
// warm-start seeds for the next incremental run, and the new-pattern
// diff against the previous run. Caller holds mu.
func (m *Manager) harvestMonitorLocked(j *Job) {
	mon := m.monitors[j.Spec.Monitor]
	if mon == nil || mon.lastJobID != j.ID {
		return // monitor gone, replaced, or this job was superseded
	}
	if j.State != StateDone || j.report == nil {
		if j.State == StateFailed {
			mon.lastError = j.Error
			m.metrics.MonitorJobs.Inc("error")
		}
		return
	}
	rep := j.report
	seen := make(map[string]bool, len(rep.Patterns))
	var fresh []resultPattern
	pool := make([][]int, len(rep.Patterns))
	for i, p := range rep.Patterns {
		pool[i] = p.Items
		k := fmt.Sprint(p.Items)
		seen[k] = true
		if mon.runs > 0 && !mon.seen[k] {
			fresh = append(fresh, resultPattern{Items: p.Items, Support: p.Support(), Size: len(p.Items)})
		}
	}
	// An empty result keeps the previous seeds: re-seeding from nothing
	// would pin every later incremental run to the empty pool, while the
	// old seeds are still re-validated against the grown dataset.
	if mon.spec.Incremental && len(pool) > 0 {
		mon.pool = pool
	}
	mon.seen = seen
	mon.newPatterns = fresh
	mon.runs++
	if len(fresh) > 0 {
		m.metrics.MonitorNewPatterns.Add(float64(len(fresh)))
	}
}
