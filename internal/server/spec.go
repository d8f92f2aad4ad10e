package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// JobSpec is the body of POST /jobs.
type JobSpec struct {
	// Algorithm is an engine registry name (see GET /algorithms).
	Algorithm string `json:"algorithm"`
	// Dataset names the transaction database to mine.
	Dataset DatasetSpec `json:"dataset"`
	// Options are the engine options under their json names; zero
	// values pick algorithm defaults.
	Options engine.Options `json:"options"`
	// TimeoutMS optionally bounds the run; it is clamped to the server's
	// default timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Shard, when set, marks this job as one task-block lease of a
	// distributed run (see the coordinator in distributed.go). Shard jobs
	// always execute locally — a worker never re-distributes leased work —
	// and return the merged answer of task units [Lo, Hi) (in the miner's
	// merge order, unbracketed, without the root's patterns; the
	// coordinator merges its own root's answer and the shards').
	Shard *ShardSpec `json:"shard,omitempty"`
	// Monitor, when set, names the catalog dataset whose append monitor
	// submitted this job; on completion the manager folds the result back
	// into that monitor (warm-start seeds, new-pattern diff). Visible in
	// job listings so operators can tell monitor re-mines from user jobs.
	Monitor string `json:"monitor,omitempty"`
}

// ShardSpec identifies one task-block lease of a distributed run.
type ShardSpec struct {
	// Lo and Hi bound the half-open task-unit range [Lo, Hi) to mine.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Units is the coordinator's planned task-unit count. The worker
	// recomputes the decomposition from the shipped dataset and fails the
	// shard on a mismatch, so representation drift surfaces as a loud
	// error instead of silently mining the wrong subtrees.
	Units int `json:"units"`
}

func (sh *ShardSpec) validate() error {
	if sh.Units < 1 || sh.Lo < 0 || sh.Hi > sh.Units || sh.Lo >= sh.Hi {
		return fmt.Errorf("server: invalid shard [%d,%d) of %d task units", sh.Lo, sh.Hi, sh.Units)
	}
	return nil
}

func (s JobSpec) timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

func (s JobSpec) validate(cfg Config, cat *Catalog) error {
	if _, err := engine.Get(s.Algorithm); err != nil {
		return err
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("server: timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	if err := s.Options.Validate(); err != nil {
		return err
	}
	if s.Shard != nil {
		if err := s.Shard.validate(); err != nil {
			return err
		}
	}
	return s.Dataset.validate(cfg, cat)
}

// DatasetSpec selects exactly one dataset source: inline transactions, a
// FIMI/CSV/matrix file under the server's data directory, a named
// catalog dataset (see PUT /datasets/{name}), or one of the generators.
// An optional Transform shards or samples the materialized dataset.
type DatasetSpec struct {
	// Transactions is an inline transaction database (non-negative item
	// IDs; the request body size cap bounds it).
	Transactions [][]int `json:"transactions,omitempty"`
	// Path is a dataset file resolved inside the server's -data-dir;
	// rejected when the server runs without one. Gzip is auto-detected;
	// Format forces the format (default: sniffed).
	Path string `json:"path,omitempty"`
	// Catalog names a dataset uploaded to the catalog; the parsed
	// dataset is reused across jobs (content-hash keyed).
	Catalog string `json:"catalog,omitempty"`
	// Format optionally forces the format of a Path dataset: "fimi",
	// "csv", "matrix", or "seq" (ordered event sequences).
	Format string `json:"format,omitempty"`
	// Spec is the generator recipe ("generator", "n", ... "seed" at
	// this level of the JSON); Generator "" means no generator.
	datagen.Spec

	// Transform optionally filters the dataset after materialization.
	Transform *ingest.TransformSpec `json:"transform,omitempty"`
}

func (ds DatasetSpec) sources() int {
	n := 0
	if len(ds.Transactions) > 0 {
		n++
	}
	if ds.Path != "" {
		n++
	}
	if ds.Catalog != "" {
		n++
	}
	if ds.Generator != "" {
		n++
	}
	return n
}

func (ds DatasetSpec) validate(cfg Config, cat *Catalog) error {
	// An empty list is no dataset, and a stored spec would drop it.
	if ds.Transactions != nil && len(ds.Transactions) == 0 {
		return fmt.Errorf("server: dataset transactions must not be empty")
	}
	if ds.sources() != 1 {
		return fmt.Errorf("server: dataset must set exactly one of transactions, path, catalog, generator")
	}
	if ds.Format != "" {
		if ds.Path == "" {
			return fmt.Errorf("server: dataset format applies only to path datasets")
		}
		if _, err := ingest.FormatByName(ds.Format); err != nil {
			return err
		}
	}
	if err := ds.Transform.Validate(); err != nil {
		return err
	}
	if ds.Path != "" {
		if cfg.DataDir == "" {
			return fmt.Errorf("server: path datasets are disabled (server started without -data-dir)")
		}
		if _, err := resolvePath(cfg.DataDir, ds.Path); err != nil {
			return err
		}
	}
	if ds.Catalog != "" {
		if _, ok := cat.Get(ds.Catalog); !ok {
			return fmt.Errorf("server: unknown catalog dataset %q", ds.Catalog)
		}
	}
	if ds.Generator != "" {
		if err := ds.Spec.Validate(); err != nil {
			return err
		}
	}
	if rows, items := ds.sizeBound(); overCellCap(rows, items, cfg.MaxCells) {
		return fmt.Errorf("server: dataset of %d×%d exceeds the %d-cell cap", rows, items, cfg.MaxCells)
	}
	return nil
}

// itemOverheadCells is the fixed per-item cost charged against MaxCells.
// The vertical representation allocates a bitset (header + slice entry)
// for every ID of the item universe, so a sparse dataset with a single
// huge item ID is expensive even with one transaction — the |D|·|I| cell
// count alone would let it slip under the cap.
const itemOverheadCells = 64

// overCellCap reports whether a rows×items dataset exceeds maxCells,
// charging itemOverheadCells per universe item. Overflow-safe: negative
// dimensions (an upstream addition may already have wrapped) count as
// over, and both factors are bounded by division before any multiply.
func overCellCap(rows, items, maxCells int) bool {
	if maxCells <= 0 {
		return false
	}
	if rows < 0 || items < 0 {
		return true
	}
	if items > maxCells/itemOverheadCells {
		return true
	}
	if items > 0 && rows > maxCells/items {
		return true
	}
	return rows*items+items*itemOverheadCells > maxCells
}

// sizeBound computes |D|×|I| for specs whose shape is known up front;
// path and catalog datasets read (0, 0) here and are sized after loading.
func (ds DatasetSpec) sizeBound() (rows, items int) {
	if len(ds.Transactions) == 0 {
		return ds.Spec.Shape()
	}
	maxItem := -1
	for _, t := range ds.Transactions {
		for _, it := range t {
			maxItem = max(maxItem, it)
		}
	}
	return len(ds.Transactions), maxItem + 1
}

// resolvePath joins name onto root and rejects escapes.
func resolvePath(root, name string) (string, error) {
	clean := filepath.Clean("/" + name) // forces a rooted, dot-dot-free path
	full := filepath.Join(root, clean)
	if rel, err := filepath.Rel(root, full); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("server: path %q escapes the data directory", name)
	}
	return full, nil
}

// build materializes the dataset. It runs on a worker goroutine so that
// at most Config.Workers datasets are in flight, and re-checks the cell
// cap for sources whose size is only known after loading. Catalog and
// path datasets go through cat's content-hash cache.
func (ds DatasetSpec) build(cfg Config, cat *Catalog) (*dataset.Dataset, error) {
	var d *dataset.Dataset
	var err error
	switch {
	case len(ds.Transactions) > 0:
		d, err = dataset.New(ds.Transactions)
	case ds.Path != "":
		var full string
		if full, err = resolvePath(cfg.DataDir, ds.Path); err == nil {
			if _, err = os.Stat(full); err == nil {
				d, err = cat.LoadPath(full, ds.Format)
			}
		}
	case ds.Catalog != "":
		d, err = cat.Dataset(ds.Catalog)
	case ds.Generator != "":
		d, _ = ds.Spec.Build()
	default:
		err = fmt.Errorf("server: empty dataset spec")
	}
	if err != nil {
		return nil, err
	}
	if transforms := ds.Transform.Transforms(); len(transforms) > 0 {
		d, _ = ingest.Apply(d, false, transforms...)
	}
	if overCellCap(d.Size(), d.NumItems(), cfg.MaxCells) {
		return nil, fmt.Errorf("server: dataset of %d×%d exceeds the %d-cell cap", d.Size(), d.NumItems(), cfg.MaxCells)
	}
	return d, nil
}
