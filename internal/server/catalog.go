package server

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/ingest"
)

// Catalog is pfserve's in-memory dataset store: named, parsed datasets
// uploaded once and referenced by job specs, deduplicated by content
// hash. Two layers share one mutex:
//
//   - entries: name → DatasetEntry, the user-visible catalog;
//   - cache: (sha256, format) → parsed *dataset.Dataset, so re-uploading
//     identical content under another name, or re-running a job against
//     the same -data-dir file, reuses the parsed dataset instead of
//     parsing (and storing) it again.
//
// The cache is bounded (insertion-order eviction); catalog entries pin
// their dataset regardless of cache eviction. Parsed datasets are
// in-memory; with a Store attached the raw uploads and the entry
// manifest are durable, and restore rebuilds the parsed working set at
// startup by re-ingesting the blobs (ingestion is deterministic, so the
// rebuilt datasets are identical).
type Catalog struct {
	mu       sync.Mutex
	entries  map[string]*DatasetEntry
	cache    map[string]*parsedDataset
	cacheKey []string // insertion order, for eviction
	hits     int
	maxCells int
	store    *Store // nil = memory-only
	metrics  *Metrics
}

// parsedDataset is one content-hash cache value: the parsed dataset plus
// the ingestion facts an entry needs, so a cache hit can skip the parse
// entirely.
type parsedDataset struct {
	ds      *dataset.Dataset
	format  string
	gzipped bool
}

// catalogCacheSize bounds the content-hash cache (parsed datasets kept
// beyond the named entries, e.g. for path jobs).
const catalogCacheSize = 32

// maxCatalogEntries bounds the number of named entries: each pins a
// parsed dataset (up to the cell cap) regardless of cache eviction, so
// the entry count is the remaining lever on server memory.
const maxCatalogEntries = 256

// nameRE constrains dataset names to path- and URL-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// DatasetEntry describes one named catalog dataset.
type DatasetEntry struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Format is the format that decoded the upload.
	Format string `json:"format"`
	// Gzipped reports whether the upload was gzip-compressed.
	Gzipped bool `json:"gzipped"`
	// SHA256 is the hex content hash of the raw upload — the cache key.
	SHA256 string `json:"sha256"`
	// Bytes is the raw upload size.
	Bytes int64 `json:"bytes"`
	// Rows, Items, Density and AvgTxnLen summarize the parsed dataset
	// (Density = item occurrences / (rows·universe)).
	Rows      int     `json:"rows"`
	Items     int     `json:"items"`
	Density   float64 `json:"density"`
	AvgTxnLen float64 `json:"avg_txn_len"`
	// Cached reports whether the upload was served from the content-hash
	// cache instead of being parsed.
	Cached bool `json:"cached"`
	// Appends counts the row chunks appended via POST
	// /datasets/{name}/rows since the upload. SHA256 and Bytes cover the
	// appended chunks too: SHA256 is the lineage hash of the
	// concatenated bytes, identical to re-uploading one file holding
	// base + every chunk (the ingest.Appender equivalence contract).
	Appends int `json:"appends,omitempty"`
	// Tenant is the uploading tenant's name ("" in open mode).
	Tenant string `json:"tenant,omitempty"`
	// Created is the upload time.
	Created time.Time `json:"created_at"`

	ds              *dataset.Dataset
	requestedFormat string // the ?format= override, "" = sniffed (manifest needs it)
	baseSHA         string // content hash of the original upload blob
	baseBytes       int64  // raw size of the original upload
	chunks          []AppendRecord
	raw             []byte           // memory-only mode: base bytes kept for appendability
	app             *ingest.Appender // live append state, built on first append
}

// newCatalog returns an empty catalog whose datasets are bounded by
// maxCells (see Config.MaxCells), persisted to store (nil = memory-only)
// and instrumented by metrics.
func newCatalog(maxCells int, store *Store, metrics *Metrics) *Catalog {
	return &Catalog{
		entries:  make(map[string]*DatasetEntry),
		cache:    make(map[string]*parsedDataset),
		maxCells: maxCells,
		store:    store,
		metrics:  metrics,
	}
}

// PutOwned parses data (format "" sniffs; gzip auto-detected) and
// stores it under name on behalf of owner ("" in open mode), replacing
// any existing entry. The raw bytes are hashed first and identical
// content already in the cache skips the parse entirely. When quota > 0
// the owner's total raw catalog bytes (replacements credited) may not
// exceed it — a *QuotaError (429) otherwise. It returns the entry and
// whether an entry was replaced.
func (c *Catalog) PutOwned(name, format string, data []byte, owner string, quota int64) (*DatasetEntry, bool, error) {
	return c.put(name, format, data, owner, quota, time.Now(), true)
}

// put is the shared insert path for uploads and startup restore; see
// PutOwned. persist=false (restore) skips the blob/manifest writes and
// keeps the recorded creation time.
func (c *Catalog) put(name, format string, data []byte, owner string, quota int64, created time.Time, persist bool) (*DatasetEntry, bool, error) {
	if !nameRE.MatchString(name) {
		return nil, false, fmt.Errorf("server: invalid dataset name %q (want %s)", name, nameRE)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(data))
	key := cacheKey(sum, format)
	c.mu.Lock()
	parsed, cached := c.cache[key]
	if cached {
		c.recordHitLocked()
	}
	c.mu.Unlock()

	if !cached {
		var opts ingest.Options
		if format != "" {
			f, err := ingest.FormatByName(format)
			if err != nil {
				return nil, false, err
			}
			opts.Format = f
		}
		res, err := ingest.FromBytes(name, data, opts)
		if err != nil {
			return nil, false, err
		}
		if overCellCap(res.Dataset.Size(), res.Dataset.NumItems(), c.maxCells) {
			return nil, false, fmt.Errorf("server: dataset of %d×%d exceeds the %d-cell cap",
				res.Dataset.Size(), res.Dataset.NumItems(), c.maxCells)
		}
		parsed = &parsedDataset{ds: res.Dataset, format: res.Format, gzipped: res.Gzipped}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent Put may have inserted the same content while we
	// parsed; prefer the resident copy so equal-content entries always
	// share one dataset.
	if resident, ok := c.cache[key]; ok {
		parsed = resident
	} else {
		c.cacheAdd(key, parsed)
	}
	old, exists := c.entries[name]
	if !exists && len(c.entries) >= maxCatalogEntries {
		return nil, false, fmt.Errorf("server: catalog is full (%d entries); delete one first", maxCatalogEntries)
	}
	if err := c.quotaLocked(owner, name, quota, 0, int64(len(data)), "upload of"); err != nil {
		return nil, false, err
	}
	stats := parsed.ds.ComputeStats()
	entry := &DatasetEntry{
		Name:            name,
		Format:          parsed.format,
		Gzipped:         parsed.gzipped,
		SHA256:          sum,
		Bytes:           int64(len(data)),
		Rows:            stats.Transactions,
		Items:           stats.UniverseSize,
		Density:         density(stats),
		AvgTxnLen:       stats.AvgTxnLen,
		Cached:          cached,
		Tenant:          owner,
		Created:         created,
		ds:              parsed.ds,
		requestedFormat: format,
		baseSHA:         sum,
		baseBytes:       int64(len(data)),
	}
	if c.store == nil {
		// Without a blob store the raw bytes are the only way to build an
		// append state later; keep them (memory-only mode is the dev/test
		// configuration, where this is cheap).
		entry.raw = data
	}
	c.entries[name] = entry
	if persist && c.store != nil {
		if err := c.store.SaveBlob(sum, data); err != nil {
			delete(c.entries, name)
			if exists {
				c.entries[name] = old
			}
			return nil, false, fmt.Errorf("server: persisting dataset blob: %w", err)
		}
		if err := c.persistManifestLocked(); err != nil {
			delete(c.entries, name)
			if exists {
				c.entries[name] = old
			}
			return nil, false, fmt.Errorf("server: persisting catalog manifest: %w", err)
		}
		if exists {
			c.gcEntryBlobsLocked(old)
		}
	}
	c.metrics.IngestBytes.Add(float64(len(data)), tenantLabel(owner))
	if exists {
		c.metrics.CatalogBytes.Add(-float64(old.Bytes), tenantLabel(old.Tenant))
	}
	c.metrics.CatalogBytes.Add(float64(entry.Bytes), tenantLabel(owner))
	return entry, exists, nil
}

// quotaLocked enforces owner's catalog byte quota (0 = none) on an
// operation that leaves the entry name holding kept+add bytes: kept is 0
// for a replacing upload and the entry's current size for an append. op
// names the operation in the *QuotaError. Caller holds mu.
func (c *Catalog) quotaLocked(owner, name string, quota, kept, add int64, op string) error {
	if quota <= 0 {
		return nil
	}
	used := kept
	for n, e := range c.entries {
		if e.Tenant == owner && n != name {
			used += e.Bytes
		}
	}
	if used+add <= quota {
		return nil
	}
	c.metrics.AuthRejections.Inc("catalog_quota")
	return &QuotaError{
		Msg: fmt.Sprintf("server: %s %d bytes exceeds tenant %q's catalog quota (%d of %d bytes in use)",
			op, add, owner, used, quota),
		RetryAfter: 60,
	}
}

// recordHitLocked bumps the parse-saved counters. Caller holds mu.
func (c *Catalog) recordHitLocked() {
	c.hits++
	c.metrics.CacheHits.Inc()
}

// tenantLabel renders an owner name as a metrics label (open-mode
// uploads belong to the anonymous tenant).
func tenantLabel(owner string) string {
	if owner == "" {
		return AnonymousTenant
	}
	return owner
}

// blobReferencedLocked reports whether any entry still references the
// content hash — as its base upload or as an appended chunk. Caller
// holds mu.
func (c *Catalog) blobReferencedLocked(sha string) bool {
	for _, e := range c.entries {
		if e.baseSHA == sha {
			return true
		}
		for _, rec := range e.chunks {
			if rec.SHA256 == sha {
				return true
			}
		}
	}
	return false
}

// gcEntryBlobsLocked deletes a removed/replaced entry's blobs (base and
// chunks) once no remaining entry references them. Caller holds mu and
// has already removed or replaced the entry.
func (c *Catalog) gcEntryBlobsLocked(old *DatasetEntry) {
	c.gcBlobLocked(old.baseSHA)
	for _, rec := range old.chunks {
		c.gcBlobLocked(rec.SHA256)
	}
}

// gcBlobLocked deletes one blob from the store once no entry references
// it. A failed delete only leaks disk space, so it is counted, not
// returned. Caller holds mu.
func (c *Catalog) gcBlobLocked(sha string) {
	if c.store == nil || c.blobReferencedLocked(sha) {
		return
	}
	if err := c.store.DeleteBlob(sha); err != nil {
		c.metrics.storeFailed("blob_gc", sha, err)
	}
}

// persistManifestLocked rewrites the durable manifest from the current
// entries. Caller holds mu.
func (c *Catalog) persistManifestLocked() error {
	manifest := make([]ManifestEntry, 0, len(c.entries))
	for _, e := range c.entries {
		manifest = append(manifest, ManifestEntry{
			Name:            e.Name,
			RequestedFormat: e.requestedFormat,
			Tenant:          e.Tenant,
			SHA256:          e.baseSHA,
			Bytes:           e.baseBytes,
			Created:         e.Created,
			Appends:         e.chunks,
		})
	}
	return c.store.SaveManifest(manifest)
}

// restore rebuilds the catalog from the attached store: every manifest
// entry's blob is re-ingested (through the content-hash cache, so
// shared content parses once). Problems are returned as warnings, one
// per skipped entry — a missing blob must not block the rest.
func (c *Catalog) restore() (warns []string) {
	if c.store == nil {
		return nil
	}
	manifest, err := c.store.LoadManifest()
	if err != nil {
		return []string{fmt.Sprintf("loading manifest: %v", err)}
	}
	for _, me := range manifest {
		data, err := c.store.LoadBlob(me.SHA256)
		if err != nil {
			warns = append(warns, fmt.Sprintf("dataset %q: loading blob %s: %v", me.Name, me.SHA256, err))
			continue
		}
		if _, _, err := c.put(me.Name, me.RequestedFormat, data, me.Tenant, 0, me.Created, false); err != nil {
			warns = append(warns, fmt.Sprintf("dataset %q: re-ingesting: %v", me.Name, err))
			continue
		}
		// Replay appended chunks through the same path that accepted them;
		// the Appender equivalence contract makes the rebuilt entry
		// identical to the pre-crash one (lineage hash included).
		for i, rec := range me.Appends {
			chunk, err := c.store.LoadBlob(rec.SHA256)
			if err != nil {
				warns = append(warns, fmt.Sprintf("dataset %q: loading append chunk %d (%s): %v", me.Name, i, rec.SHA256, err))
				break
			}
			if _, _, err := c.append(me.Name, chunk, me.Tenant, 0, false); err != nil {
				warns = append(warns, fmt.Sprintf("dataset %q: replaying append chunk %d: %v", me.Name, i, err))
				break
			}
		}
	}
	return warns
}

// Append decodes data as additional rows of the named dataset (same
// format, same compression — the ingest.Appender contract) and commits
// them incrementally: column TID-sets, frequencies and the sha256
// lineage are extended without re-reading the base. The entry is
// replaced by an updated snapshot whose dataset, SHA256 and stats are
// byte-identical to re-uploading base+chunks as one file; jobs already
// holding the old dataset keep mining the old snapshot (snapshots are
// immutable). With quota > 0 the grown entry counts against owner's
// catalog byte budget. With a Store the chunk is persisted and replayed
// at startup. The append is atomic at every layer: on any error — bad
// chunk, cell cap, durability failure — the entry is unchanged.
//
// It returns the updated entry and the number of rows added. The chunk
// is decoded under the catalog lock, so appends serialize with uploads;
// chunks are expected to be small relative to uploads.
func (c *Catalog) Append(name string, data []byte, owner string, quota int64) (*DatasetEntry, int, error) {
	return c.append(name, data, owner, quota, true)
}

func (c *Catalog) append(name string, data []byte, owner string, quota int64, persist bool) (*DatasetEntry, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, 0, fmt.Errorf("server: unknown catalog dataset %q", name)
	}
	if len(data) == 0 {
		return e, 0, nil
	}
	if err := c.quotaLocked(owner, name, quota, e.Bytes, int64(len(data)), "appending"); err != nil {
		return nil, 0, err
	}
	if err := c.ensureAppenderLocked(e); err != nil {
		return nil, 0, err
	}
	chunkSHA := fmt.Sprintf("%x", sha256.Sum256(data))
	// Blob before commit: a durability failure here aborts with nothing
	// changed anywhere.
	if persist && c.store != nil {
		if err := c.store.SaveBlob(chunkSHA, data); err != nil {
			return nil, 0, fmt.Errorf("server: persisting append chunk: %w", err)
		}
	}
	dropChunkBlob := func() {
		if persist {
			c.gcBlobLocked(chunkSHA)
		}
	}
	snap, err := e.app.Append(data)
	if err != nil {
		dropChunkBlob()
		return nil, 0, err
	}
	// Post-commit rejections revert through the Appender's one-level
	// Undo, which restores rows, frequencies, column sets, symbol table
	// and the lineage hash exactly.
	if overCellCap(snap.Dataset.Size(), snap.Dataset.NumItems(), c.maxCells) {
		rows, items := snap.Dataset.Size(), snap.Dataset.NumItems()
		_ = e.app.Undo()
		dropChunkBlob()
		return nil, 0, fmt.Errorf("server: appended dataset of %d×%d exceeds the %d-cell cap", rows, items, c.maxCells)
	}
	rowsAdded := snap.Dataset.Size() - e.Rows
	stats := snap.Dataset.ComputeStats()
	entry := &DatasetEntry{
		Name:            e.Name,
		Format:          snap.Format,
		Gzipped:         snap.Gzipped,
		SHA256:          snap.SHA256,
		Bytes:           e.Bytes + int64(len(data)),
		Rows:            stats.Transactions,
		Items:           stats.UniverseSize,
		Density:         density(stats),
		AvgTxnLen:       stats.AvgTxnLen,
		Cached:          e.Cached,
		Appends:         e.Appends + 1,
		Tenant:          e.Tenant,
		Created:         e.Created,
		ds:              snap.Dataset,
		requestedFormat: e.requestedFormat,
		baseSHA:         e.baseSHA,
		baseBytes:       e.baseBytes,
		chunks:          append(append([]AppendRecord(nil), e.chunks...), AppendRecord{SHA256: chunkSHA, Bytes: int64(len(data))}),
		app:             e.app,
	}
	c.entries[name] = entry
	if persist && c.store != nil {
		if err := c.persistManifestLocked(); err != nil {
			c.entries[name] = e
			_ = e.app.Undo()
			dropChunkBlob()
			return nil, 0, fmt.Errorf("server: persisting catalog manifest: %w", err)
		}
	}
	// A future upload of the concatenated file is the same content; let
	// it hit the parse cache.
	c.cacheAdd(cacheKey(snap.SHA256, e.requestedFormat), &parsedDataset{ds: snap.Dataset, format: snap.Format, gzipped: snap.Gzipped})
	if persist {
		c.metrics.IngestBytes.Add(float64(len(data)), tenantLabel(e.Tenant))
		c.metrics.CatalogBytes.Add(float64(len(data)), tenantLabel(e.Tenant))
		c.metrics.DatasetAppends.Inc(tenantLabel(e.Tenant))
		c.metrics.AppendedRows.Add(float64(rowsAdded), tenantLabel(e.Tenant))
	}
	return entry, rowsAdded, nil
}

// ensureAppenderLocked builds the entry's live append state if it does
// not exist yet: re-ingest the base bytes (from the retained raw copy in
// memory-only mode, the blob store otherwise) and replay any persisted
// chunks. Deterministic ingestion makes the rebuilt state identical to
// the one that accepted the chunks. Caller holds mu.
func (c *Catalog) ensureAppenderLocked(e *DatasetEntry) error {
	if e.app != nil {
		return nil
	}
	base := e.raw
	if base == nil {
		if c.store == nil {
			return fmt.Errorf("server: dataset %q has no append state and no stored bytes to rebuild it", e.Name)
		}
		var err error
		base, err = c.store.LoadBlob(e.baseSHA)
		if err != nil {
			return fmt.Errorf("server: loading base blob of %q: %w", e.Name, err)
		}
	}
	var opts ingest.Options
	if e.requestedFormat != "" {
		f, err := ingest.FormatByName(e.requestedFormat)
		if err != nil {
			return err
		}
		opts.Format = f
	}
	app, err := ingest.NewAppender(ingest.BytesSource(e.Name, base), opts)
	if err != nil {
		return fmt.Errorf("server: rebuilding append state of %q: %w", e.Name, err)
	}
	for i, rec := range e.chunks {
		chunk, err := c.store.LoadBlob(rec.SHA256)
		if err != nil {
			return fmt.Errorf("server: loading append chunk %d of %q: %w", i, e.Name, err)
		}
		if _, err := app.Append(chunk); err != nil {
			return fmt.Errorf("server: replaying append chunk %d of %q: %w", i, e.Name, err)
		}
	}
	e.app = app
	e.raw = nil
	return nil
}

// size returns the number of named entries.
func (c *Catalog) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the named entry.
func (c *Catalog) Get(name string) (*DatasetEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	return e, ok
}

// Dataset returns the parsed dataset of the named entry.
func (c *Catalog) Dataset(name string) (*dataset.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown catalog dataset %q", name)
	}
	return e.ds, nil
}

// Delete removes the named entry (its dataset may live on in the
// content-hash cache until evicted). With a Store, the manifest is
// rewritten and the blob removed once no entry references it.
func (c *Catalog) Delete(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return false
	}
	delete(c.entries, name)
	if c.store != nil {
		if err := c.persistManifestLocked(); err != nil {
			c.entries[name] = e // keep memory and disk agreeing
			return false
		}
		c.gcEntryBlobsLocked(e)
	}
	c.metrics.CatalogBytes.Add(-float64(e.Bytes), tenantLabel(e.Tenant))
	return true
}

// List returns all entries sorted by name.
func (c *Catalog) List() []*DatasetEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*DatasetEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Hits returns how many parses the content-hash cache has saved.
func (c *Catalog) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// LoadPath ingests a -data-dir file with content-hash reuse: the file is
// hashed first (a cheap IO pass), and a cache hit skips parsing — this
// is what makes repeated path jobs against the same file cheap.
func (c *Catalog) LoadPath(full, format string) (*dataset.Dataset, error) {
	var opts ingest.Options
	if format != "" {
		f, err := ingest.FormatByName(format)
		if err != nil {
			return nil, err
		}
		opts.Format = f
	}
	sum, err := ingest.HashFile(full)
	if err != nil {
		return nil, err
	}
	key := cacheKey(sum, format)
	c.mu.Lock()
	if parsed, ok := c.cache[key]; ok {
		c.recordHitLocked()
		c.mu.Unlock()
		return parsed.ds, nil
	}
	c.mu.Unlock()

	res, err := ingest.Load(full, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	// The file may have changed between the hash probe and the parse;
	// cache under the hash of the bytes actually parsed, never the
	// possibly-stale probe key.
	c.cacheAdd(cacheKey(res.SHA256, format), &parsedDataset{ds: res.Dataset, format: res.Format, gzipped: res.Gzipped})
	c.mu.Unlock()
	return res.Dataset, nil
}

// cacheAdd inserts under the catalog lock, evicting the oldest insertion
// beyond catalogCacheSize.
func (c *Catalog) cacheAdd(key string, parsed *parsedDataset) {
	if _, ok := c.cache[key]; ok {
		return
	}
	c.cache[key] = parsed
	c.cacheKey = append(c.cacheKey, key)
	if len(c.cacheKey) > catalogCacheSize {
		evict := c.cacheKey[0]
		c.cacheKey = c.cacheKey[1:]
		delete(c.cache, evict)
	}
}

// cacheKey combines content hash and requested format: the same bytes
// parsed as CSV and as FIMI are different datasets.
func cacheKey(sha, format string) string { return sha + "|" + format }

// density is the filled fraction of the |D|×|I| cell grid.
func density(s dataset.Stats) float64 {
	if s.Transactions == 0 || s.UniverseSize == 0 {
		return 0
	}
	return float64(s.TotalItemOccur) / (float64(s.Transactions) * float64(s.UniverseSize))
}
