package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/engine"
)

// MaxBodyBytes caps a job-submission body (inline transactions included).
const MaxBodyBytes = 32 << 20

// tenantKey keys the authenticated *Tenant in a request context.
type tenantKey struct{}

// tenantFrom returns the request's authenticated tenant (nil in open
// mode).
func tenantFrom(ctx context.Context) *Tenant {
	t, _ := ctx.Value(tenantKey{}).(*Tenant)
	return t
}

// withAuth enforces API-key authentication when the manager has an
// Auth config: GET /healthz and GET /metrics stay open (liveness probes
// and scrapers don't carry tenant credentials); everything else needs a
// valid key — 401 without one, 403 for an unknown one — and runs with
// its tenant in the request context. Without an Auth config it is the
// identity middleware.
func withAuth(m *Manager, next http.Handler) http.Handler {
	auth := m.cfg.Auth
	if auth == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics":
			next.ServeHTTP(w, r)
			return
		}
		key := requestKey(r)
		if key == "" {
			m.metrics.AuthRejections.Inc("missing_key")
			w.Header().Set("WWW-Authenticate", `Bearer realm="pfserve"`)
			writeError(w, http.StatusUnauthorized, fmt.Errorf("missing API key (use Authorization: Bearer <key> or X-API-Key)"))
			return
		}
		t, ok := auth.Lookup(key)
		if !ok {
			m.metrics.AuthRejections.Inc("bad_key")
			writeError(w, http.StatusForbidden, fmt.Errorf("unknown API key"))
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, t)))
	})
}

// mayMutate reports whether the request may mutate a resource owned by
// owner: always in open mode, owner-only with auth enabled.
func mayMutate(m *Manager, r *http.Request, owner string) bool {
	if m.cfg.Auth == nil {
		return true
	}
	t := tenantFrom(r.Context())
	return t != nil && t.Name == owner
}

// Handler returns the pfserve HTTP API over m:
//
//	GET    /healthz          liveness
//	GET    /algorithms       registered algorithm names
//	GET    /jobs             all job snapshots, most recent first
//	POST   /jobs             submit a JobSpec; 202 + {"id": ...}
//	GET    /jobs/{id}        status snapshot + latest progress event
//	GET    /jobs/{id}/events event log as NDJSON; ?follow=1 streams until
//	                         the job is terminal
//	GET    /jobs/{id}/result mined patterns (?top=N truncates);
//	                         409 while the job is still active
//	DELETE /jobs/{id}        cancel an active job (202) or remove a
//	                         terminal one (200)
//	PUT    /datasets/{name}  upload a dataset (body = file bytes, gzip
//	                         auto-detected; ?format= forces fimi/csv/
//	                         matrix); 201 on create, 200 on replace
//	GET    /datasets         catalog listing with per-dataset stats and
//	                         the content-hash cache hit count
//	GET    /datasets/{name}  one catalog entry
//	DELETE /datasets/{name}  remove a catalog entry (and its monitor)
//	POST   /datasets/{name}/rows
//	                         streaming append: body = additional rows in
//	                         the dataset's own format and compression;
//	                         the entry is extended incrementally and the
//	                         response carries the updated entry, the
//	                         rows added, and the monitor job fired (if
//	                         any)
//	PUT    /datasets/{name}/monitor
//	                         install a MonitorSpec: re-mine the dataset
//	                         as appends accumulate (threshold, sliding
//	                         window, incremental warm start)
//	GET    /datasets/{name}/monitor
//	                         monitor status: pending rows, last job, and
//	                         the latest run's new patterns
//	DELETE /datasets/{name}/monitor
//	                         remove the monitor
//	GET    /metrics          Prometheus text exposition (see Metrics)
//
// Job specs reference uploads as {"dataset": {"catalog": "<name>"}};
// the parsed dataset is shared across jobs and deduplicated by content
// hash.
//
// With an Auth config every endpoint except GET /healthz and GET
// /metrics requires an API key (401 missing, 403 unknown); submissions
// beyond a tenant's active-job quota, uploads beyond its catalog byte
// quota, and a full queue answer 429 with a Retry-After header; during
// graceful shutdown submissions answer 503. Mutations (cancel/remove a
// job, delete a dataset, append rows, manage a monitor) are restricted
// to the owning tenant.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.Handle("GET /metrics", m.Metrics().Registry().Handler())
	mux.HandleFunc("GET /algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"algorithms": engine.Names()})
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		out := make([]Snapshot, len(jobs))
		for i, j := range jobs {
			out[i] = m.Snapshot(j)
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !decodeStrict(w, r, "job spec", &spec) {
			return
		}
		j, err := m.Submit(spec, tenantFrom(r.Context()))
		var quota *QuotaError
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.As(err, &quota):
			writeQuotaError(w, quota)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusAccepted, map[string]any{
				"id":         j.ID,
				"status_url": "/jobs/" + j.ID,
			})
		}
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
			return
		}
		writeJSON(w, http.StatusOK, m.Snapshot(j))
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
			return
		}
		serveEvents(m, j, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
			return
		}
		rep, ok := m.Report(j)
		if !ok {
			snap := m.Snapshot(j)
			if snap.State == StateFailed {
				writeError(w, http.StatusConflict, fmt.Errorf("job failed: %s", snap.Error))
				return
			}
			writeError(w, http.StatusConflict, fmt.Errorf("job is %s; no result yet", snap.State))
			return
		}
		writeJSON(w, http.StatusOK, renderResult(rep, r))
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if j, ok := m.Get(id); ok && !mayMutate(m, r, j.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("job %s belongs to another tenant", id))
			return
		}
		if m.Cancel(id) {
			writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "canceling": true})
			return
		}
		if m.Remove(id) {
			writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job"))
	})
	mux.HandleFunc("PUT /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.MaxUploadBytes < 0 {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset uploads are disabled"))
			return
		}
		name := r.PathValue("name")
		if old, ok := m.Catalog().Get(name); ok && !mayMutate(m, r, old.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset %q belongs to another tenant", name))
			return
		}
		var entry *DatasetEntry
		var replaced bool
		if !writeDataset(w, r, m.cfg.MaxUploadBytes, "upload", func(body []byte, owner string, quota int64) (err error) {
			entry, replaced, err = m.Catalog().PutOwned(name, r.URL.Query().Get("format"), body, owner, quota)
			return err
		}) {
			return
		}
		status := http.StatusCreated
		if replaced {
			status = http.StatusOK
		}
		writeJSON(w, status, entry)
	})
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"datasets":   m.Catalog().List(),
			"cache_hits": m.Catalog().Hits(),
		})
	})
	mux.HandleFunc("GET /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		entry, ok := m.Catalog().Get(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset"))
			return
		}
		writeJSON(w, http.StatusOK, entry)
	})
	mux.HandleFunc("DELETE /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if e, ok := m.Catalog().Get(name); ok && !mayMutate(m, r, e.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset %q belongs to another tenant", name))
			return
		}
		if !m.Catalog().Delete(name) {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset"))
			return
		}
		m.DeleteMonitor(name) // a monitor cannot outlive its dataset
		writeJSON(w, http.StatusOK, map[string]any{"name": name, "deleted": true})
	})
	mux.HandleFunc("POST /datasets/{name}/rows", func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.MaxAppendBytes < 0 {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset appends are disabled"))
			return
		}
		name := r.PathValue("name")
		e, ok := m.Catalog().Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset"))
			return
		}
		if !mayMutate(m, r, e.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset %q belongs to another tenant", name))
			return
		}
		var entry *DatasetEntry
		var added int
		if !writeDataset(w, r, m.cfg.MaxAppendBytes, "append", func(body []byte, owner string, quota int64) (err error) {
			entry, added, err = m.Catalog().Append(name, body, owner, quota)
			return err
		}) {
			return
		}
		resp := map[string]any{"dataset": entry, "rows_added": added}
		if jobID, fired := m.notifyAppend(name, entry.Rows); fired {
			resp["monitor_job"] = jobID
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("PUT /datasets/{name}/monitor", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e, ok := m.Catalog().Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset"))
			return
		}
		if !mayMutate(m, r, e.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset %q belongs to another tenant", name))
			return
		}
		var spec MonitorSpec
		if !decodeStrict(w, r, "monitor spec", &spec) {
			return
		}
		status, err := m.SetMonitor(name, spec, tenantFrom(r.Context()))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /datasets/{name}/monitor", func(w http.ResponseWriter, r *http.Request) {
		status, ok := m.MonitorStatus(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no monitor installed"))
			return
		}
		writeJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("DELETE /datasets/{name}/monitor", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if e, ok := m.Catalog().Get(name); ok && !mayMutate(m, r, e.Tenant) {
			writeError(w, http.StatusForbidden, fmt.Errorf("dataset %q belongs to another tenant", name))
			return
		}
		if !m.DeleteMonitor(name) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no monitor installed"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"name": name, "deleted": true})
	})
	return m.Metrics().observeHTTP(withAuth(m, mux))
}

// decodeStrict decodes a JSON request body of at most MaxBodyBytes into
// v, rejecting unknown fields. On failure it answers 400 "invalid
// <what>: ..." and returns false.
func decodeStrict(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid %s: %w", what, err))
		return false
	}
	return true
}

// writeDataset reads a body of at most limit bytes and hands it to write
// with the request tenant's name and catalog byte quota ("" and 0 in
// open mode). It answers 413 past the cap, 429 for a *QuotaError and 400
// for any other failure, and reports whether write succeeded.
func writeDataset(w http.ResponseWriter, r *http.Request, limit int64, what string,
	write func(body []byte, owner string, quota int64) error) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds the %d-byte cap", what, limit))
		return false
	}
	if err == nil {
		var owner string
		var quota int64
		if t := tenantFrom(r.Context()); t != nil {
			owner, quota = t.Name, t.MaxCatalogBytes
		}
		err = write(body, owner, quota)
	}
	var qerr *QuotaError
	switch {
	case errors.As(err, &qerr):
		writeQuotaError(w, qerr)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	}
	return err == nil
}

// serveEvents writes the job's event log as NDJSON. With ?follow=1 it
// keeps streaming new events until the job is terminal or the client
// goes away.
func serveEvents(m *Manager, j *Job, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	follow := r.URL.Query().Get("follow") == "1"
	enc := json.NewEncoder(w)
	seq := 0
	for {
		events, first, more := m.EventsSince(j, seq)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		seq = first + len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || !more {
			return
		}
		m.WaitEvents(r.Context(), j, seq)
		if r.Context().Err() != nil {
			return
		}
	}
}

// resultPattern is one mined pattern in a result payload.
type resultPattern struct {
	Items   []int `json:"items"`
	Support int   `json:"support"`
	Size    int   `json:"size"`
}

func renderResult(rep *engine.Report, r *http.Request) map[string]any {
	patterns := rep.Patterns
	truncated := false
	if s := r.URL.Query().Get("top"); s != "" {
		if top, err := strconv.Atoi(s); err == nil && top > 0 && top < len(patterns) {
			patterns = patterns[:top]
			truncated = true
		}
	}
	out := make([]resultPattern, len(patterns))
	for i, p := range patterns {
		out[i] = resultPattern{Items: p.Items, Support: p.Support(), Size: len(p.Items)}
	}
	result := map[string]any{
		"algorithm":      rep.Algorithm,
		"patterns":       out,
		"total_patterns": len(rep.Patterns),
		"truncated":      truncated,
		"init_pool_size": rep.InitPoolSize,
		"iterations":     rep.Iterations,
		"visited":        rep.Visited,
		"stopped":        rep.Stopped,
	}
	if len(rep.Warnings) > 0 {
		result["warnings"] = rep.Warnings
	}
	if rep.Quality != nil {
		result["quality"] = rep.Quality
	}
	return result
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
