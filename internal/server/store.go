package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Store is pfserve's durable state, rooted at one directory (the
// server's <data-dir>/state). It persists three things, each with the
// temp+rename discipline of dataset.WriteFileAtomic so a crash mid-write
// never corrupts a previously valid file:
//
//	jobs/<id>.json         one JobRecord per job — the write-ahead log:
//	                       written before a submission is acknowledged,
//	                       rewritten on every state transition
//	jobs/<id>.result.json  the mined Report of a terminal job, in its
//	                       canonical engine.EncodeReport bytes; written
//	                       before the terminal record (so a record that
//	                       says "done" always has its result on disk)
//	catalog/manifest.json  the dataset-catalog manifest
//	catalog/blobs/<sha256> the raw bytes of each uploaded dataset,
//	                       content-addressed (shared across entries)
//
// Recovery contract (see Manager): terminal records reload with their
// results; queued records re-enqueue; records left in "running" by a
// crash also re-enqueue — the engine's determinism contract makes
// re-running safe, the same spec yields a byte-identical Report.
type Store struct {
	root string
}

// jobsDir and catalog layout constants, relative to the store root.
const (
	storeJobsDir    = "jobs"
	storeCatalogDir = "catalog"
	storeBlobsDir   = "blobs"
	resultSuffix    = ".result.json"
)

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{
		dir,
		filepath.Join(dir, storeJobsDir),
		filepath.Join(dir, storeCatalogDir),
		filepath.Join(dir, storeCatalogDir, storeBlobsDir),
	} {
		if err := os.MkdirAll(sub, 0o777); err != nil {
			return nil, fmt.Errorf("server: opening store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// JobRecord is the durable form of a job: everything needed to resume
// or re-serve it after a restart, minus the result (stored separately).
type JobRecord struct {
	// ID is the job's "job-<seq>" identifier.
	ID string `json:"id"`
	// Seq is the monotone submission sequence; ID numbering resumes
	// above the highest recovered Seq.
	Seq int `json:"seq"`
	// Tenant is the submitting tenant's name ("" before multi-tenancy,
	// treated as anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the submitted job spec, verbatim.
	Spec JobSpec `json:"spec"`
	// State is the job's last persisted lifecycle state.
	State State `json:"state"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Created, Started and Ended are the lifecycle timestamps.
	Created time.Time `json:"created_at"`
	Started time.Time `json:"started_at,omitempty"`
	Ended   time.Time `json:"ended_at,omitempty"`
}

// jobPath returns the record path for a job ID.
func (s *Store) jobPath(id string) string {
	return filepath.Join(s.root, storeJobsDir, id+".json")
}

// resultPath returns the result path for a job ID.
func (s *Store) resultPath(id string) string {
	return filepath.Join(s.root, storeJobsDir, id+resultSuffix)
}

// SaveJob atomically writes the job's record.
func (s *Store) SaveJob(rec JobRecord) error {
	return writeJSONAtomic(s.jobPath(rec.ID), rec)
}

// DeleteJob removes the job's record and result (missing files are not
// an error — a queued job has no result).
func (s *Store) DeleteJob(id string) error {
	err := os.Remove(s.jobPath(id))
	if rerr := os.Remove(s.resultPath(id)); rerr != nil && !os.IsNotExist(rerr) && err == nil {
		err = rerr
	}
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// LoadJobs reads every job record, sorted by Seq ascending so recovery
// re-enqueues in original submission order. Unreadable or corrupt
// records are skipped and reported in warns — one bad file must not
// block the rest of the recovery. A record whose ID is not its file's
// name is corrupt too: the job's later writes and deletes go to the
// path its ID names.
func (s *Store) LoadJobs() (recs []JobRecord, warns []string, err error) {
	entries, err := os.ReadDir(filepath.Join(s.root, storeJobsDir))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, resultSuffix) || strings.HasPrefix(name, ".") {
			continue
		}
		var rec JobRecord
		if err := readJSON(filepath.Join(s.root, storeJobsDir, name), &rec); err != nil {
			warns = append(warns, fmt.Sprintf("job record %s: %v", name, err))
			continue
		}
		if rec.ID == "" || rec.Seq <= 0 {
			warns = append(warns, fmt.Sprintf("job record %s: missing id/seq", name))
			continue
		}
		if rec.ID+".json" != name {
			warns = append(warns, fmt.Sprintf("job record %s: id %q does not match the file name", name, rec.ID))
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, warns, nil
}

// SaveResult atomically writes a job's report in its canonical
// encoding (engine.EncodeReport): the bytes ReportHash covers, without
// TID sets — no result consumer reads them, and for large datasets they
// dwarf the itemsets.
func (s *Store) SaveResult(id string, rep *engine.Report) error {
	return dataset.WriteFileAtomic(s.resultPath(id), func(w io.Writer) error {
		_, err := w.Write(engine.EncodeReport(rep))
		return err
	})
}

// LoadResult reads a job's persisted report; ok is false when none was
// written (queued/failed jobs). Reloaded patterns carry their itemsets
// and memoized supports but nil TID sets, exactly like the horizontal
// miners' in-memory reports.
func (s *Store) LoadResult(id string) (rep *engine.Report, ok bool, err error) {
	data, err := os.ReadFile(s.resultPath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err == nil {
		rep, err = engine.DecodeReport(data)
	}
	if err != nil {
		return nil, false, err
	}
	return rep, true, nil
}

// ManifestEntry is one catalog dataset's durable metadata. The blob it
// references holds the raw upload bytes; the parse is redone on
// recovery (ingestion is deterministic, and the content-hash cache
// dedupes shared blobs).
type ManifestEntry struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// RequestedFormat is the ?format= override the upload was stored
	// with ("" = sniffed) — re-ingest must use the same one.
	RequestedFormat string `json:"requested_format,omitempty"`
	// Tenant is the uploading tenant's name.
	Tenant string `json:"tenant,omitempty"`
	// SHA256 is the base blob's content hash (and blob filename) — the
	// original upload, without appended chunks.
	SHA256 string `json:"sha256"`
	// Bytes is the raw upload size of the base blob.
	Bytes int64 `json:"bytes"`
	// Created is the original upload time.
	Created time.Time `json:"created_at"`
	// Appends lists the chunks appended via POST /datasets/{name}/rows,
	// in append order; recovery replays them onto the base blob through
	// the same ingest.Appender path that accepted them.
	Appends []AppendRecord `json:"appends,omitempty"`
}

// AppendRecord is one durable appended chunk: its content-addressed
// blob and raw size.
type AppendRecord struct {
	// SHA256 is the chunk blob's content hash (and blob filename).
	SHA256 string `json:"sha256"`
	// Bytes is the chunk's raw size.
	Bytes int64 `json:"bytes"`
}

// manifestPath returns the catalog manifest path.
func (s *Store) manifestPath() string {
	return filepath.Join(s.root, storeCatalogDir, "manifest.json")
}

// blobPath returns the content-addressed blob path for a hex hash.
func (s *Store) blobPath(sha string) string {
	return filepath.Join(s.root, storeCatalogDir, storeBlobsDir, sha)
}

// SaveBlob writes the content-addressed blob for sha if it is not
// already present (identical content is shared across entries).
func (s *Store) SaveBlob(sha string, data []byte) error {
	path := s.blobPath(sha)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return dataset.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadBlob reads the content-addressed blob for sha.
func (s *Store) LoadBlob(sha string) ([]byte, error) {
	return os.ReadFile(s.blobPath(sha))
}

// DeleteBlob removes a no-longer-referenced blob.
func (s *Store) DeleteBlob(sha string) error {
	err := os.Remove(s.blobPath(sha))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// SaveManifest atomically rewrites the catalog manifest.
func (s *Store) SaveManifest(entries []ManifestEntry) error {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return writeJSONAtomic(s.manifestPath(), entries)
}

// LoadManifest reads the catalog manifest; a missing manifest is an
// empty catalog.
func (s *Store) LoadManifest() ([]ManifestEntry, error) {
	var entries []ManifestEntry
	if err := readJSON(s.manifestPath(), &entries); err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return entries, nil
}

// writeJSONAtomic marshals v and writes it with temp+rename.
func writeJSONAtomic(path string, v any) error {
	return dataset.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// readJSON reads and unmarshals one JSON file.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
