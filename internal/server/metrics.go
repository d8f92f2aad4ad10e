package server

import (
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Metrics bundles pfserve's operational instruments on one registry,
// served at GET /metrics in the Prometheus text format. Every
// instrument is documented in docs/operations.md; keep the two in sync.
type Metrics struct {
	reg *metrics.Registry

	// JobsTotal counts jobs entering each lifecycle state, labeled
	// (state, tenant). state=done reconciles with the engine's Done
	// events for uncanceled runs.
	JobsTotal *metrics.Counter
	// JobsActive gauges the current queued and running jobs, labeled
	// (state). It, QueueDepth, Monitors and CatalogDatasets are set at
	// scrape time (Manager.sampleGauges).
	JobsActive *metrics.Gauge
	// QueueDepth gauges the bounded submission queue's backlog.
	QueueDepth *metrics.Gauge
	// JobsResumed counts jobs re-enqueued by crash/restart recovery.
	JobsResumed *metrics.Counter
	// MineSeconds is the per-algorithm mining wall-time histogram,
	// labeled (algorithm).
	MineSeconds *metrics.Histogram
	// EventsTotal counts engine Observer events, labeled
	// (algorithm, phase) — fed by engine.CountEvents.
	EventsTotal *metrics.Counter
	// CacheHits counts dataset parses saved by the catalog's
	// content-hash cache.
	CacheHits *metrics.Counter
	// IngestBytes counts raw dataset bytes accepted, labeled (tenant).
	IngestBytes *metrics.Counter
	// CatalogDatasets gauges the named catalog entries.
	CatalogDatasets *metrics.Gauge
	// CatalogBytes gauges the raw bytes pinned by catalog entries,
	// labeled (tenant) — the quantity the per-tenant byte quota caps.
	CatalogBytes *metrics.Gauge
	// DatasetAppends counts row chunks accepted by POST
	// /datasets/{name}/rows, labeled (tenant).
	DatasetAppends *metrics.Counter
	// AppendedRows counts transaction rows added by accepted appends,
	// labeled (tenant).
	AppendedRows *metrics.Counter
	// Monitors gauges the installed dataset monitors.
	Monitors *metrics.Gauge
	// MonitorJobs counts monitor trigger outcomes, labeled (outcome):
	// submitted, skipped_busy, error.
	MonitorJobs *metrics.Counter
	// MonitorNewPatterns counts patterns reported by a monitor run that
	// were absent from the monitored dataset's previous run.
	MonitorNewPatterns *metrics.Counter
	// HTTPRequests counts API requests, labeled (method, code).
	HTTPRequests *metrics.Counter
	// AuthRejections counts authentication/admission rejections,
	// labeled (reason): missing_key, bad_key, forbidden, job_quota,
	// catalog_quota, queue_full.
	AuthRejections *metrics.Counter
	// ShardsTotal counts distributed shard lease outcomes on the
	// coordinator, labeled (state): done, failed, retried.
	ShardsTotal *metrics.Counter
	// ShardsInFlight gauges shard leases currently held on peers.
	ShardsInFlight *metrics.Gauge
	// ShardSeconds is the per-shard lease wall-time histogram (dataset
	// ship + remote mine + result fetch), labeled (algorithm).
	ShardSeconds *metrics.Histogram
	// ShardUploads counts dataset ships to peers, labeled (outcome):
	// hit (already cached by content hash) or miss (uploaded).
	ShardUploads *metrics.Counter
	// StoreErrors counts failed store writes and deletes, labeled (op):
	// job, result, delete, blob_gc.
	StoreErrors *metrics.Counter
}

// NewMetrics registers the pfserve instrument set on reg (a nil reg
// gets a fresh registry).
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// Go runtime memstats as pfserve_go_* gauges, sampled on scrape.
	metrics.InstrumentGoRuntime(reg)
	return &Metrics{
		reg: reg,
		JobsTotal: reg.NewCounter("pfserve_jobs_total",
			"Jobs entering each lifecycle state.", "state", "tenant"),
		JobsActive: reg.NewGauge("pfserve_jobs_active",
			"Jobs currently queued or running.", "state"),
		QueueDepth: reg.NewGauge("pfserve_queue_depth",
			"Jobs waiting in the bounded submission queue."),
		JobsResumed: reg.NewCounter("pfserve_jobs_resumed_total",
			"Jobs re-enqueued by startup crash recovery."),
		MineSeconds: reg.NewHistogram("pfserve_mine_duration_seconds",
			"Wall time of one mining run (dataset build + mine).", nil, "algorithm"),
		EventsTotal: reg.NewCounter("pfserve_engine_events_total",
			"Engine observer events by phase.", "algorithm", "phase"),
		CacheHits: reg.NewCounter("pfserve_catalog_cache_hits_total",
			"Dataset parses saved by the content-hash cache."),
		IngestBytes: reg.NewCounter("pfserve_ingest_bytes_total",
			"Raw dataset bytes accepted for ingestion.", "tenant"),
		CatalogDatasets: reg.NewGauge("pfserve_catalog_datasets",
			"Named datasets currently in the catalog."),
		CatalogBytes: reg.NewGauge("pfserve_catalog_bytes",
			"Raw bytes pinned by catalog entries.", "tenant"),
		DatasetAppends: reg.NewCounter("pfserve_dataset_appends_total",
			"Row chunks accepted by the streaming append endpoint.", "tenant"),
		AppendedRows: reg.NewCounter("pfserve_appended_rows_total",
			"Transaction rows added by accepted appends.", "tenant"),
		Monitors: reg.NewGauge("pfserve_monitors",
			"Dataset monitors currently installed."),
		MonitorJobs: reg.NewCounter("pfserve_monitor_jobs_total",
			"Monitor trigger outcomes.", "outcome"),
		MonitorNewPatterns: reg.NewCounter("pfserve_monitor_new_patterns_total",
			"Patterns first seen by a monitor's latest completed run."),
		HTTPRequests: reg.NewCounter("pfserve_http_requests_total",
			"API requests by method and status code.", "method", "code"),
		AuthRejections: reg.NewCounter("pfserve_auth_rejections_total",
			"Authentication and admission rejections.", "reason"),
		ShardsTotal: reg.NewCounter("pfserve_shards_total",
			"Distributed shard lease outcomes.", "state"),
		ShardsInFlight: reg.NewGauge("pfserve_shards_in_flight",
			"Shard leases currently held on peers."),
		ShardSeconds: reg.NewHistogram("pfserve_shard_duration_seconds",
			"Wall time of one shard lease (ship + mine + fetch).", nil, "algorithm"),
		ShardUploads: reg.NewCounter("pfserve_shard_dataset_uploads_total",
			"Dataset ships to peers by cache outcome.", "outcome"),
		StoreErrors: reg.NewCounter("pfserve_store_errors_total",
			"Failed durable-store operations by op.", "op"),
	}
}

// Registry returns the underlying registry (for the /metrics handler
// and for composing additional instruments).
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// observeHTTP wraps an HTTP handler to count (method, code) per request.
func (m *Metrics) observeHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		m.HTTPRequests.Inc(r.Method, strconv.Itoa(sw.code))
	})
}

// statusWriter records the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher when the underlying writer supports it
// (the NDJSON event streamer needs it through this wrapper).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// storeFailed logs and counts a failed store operation on what (a job
// ID or a blob hash).
func (m *Metrics) storeFailed(op, what string, err error) {
	log.Printf("server: store %s %s: %v", op, what, err)
	m.StoreErrors.Inc(op)
}

// observeMine records one mining run's wall time.
func (m *Metrics) observeMine(algorithm string, d time.Duration) {
	m.MineSeconds.Observe(d.Seconds(), algorithm)
}
