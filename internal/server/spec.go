package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rng"
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
	// Generator is one of "diag", "diagplus", "random", "replace",
	// "microarray", "quest" (the Section 6 workloads plus the classic
	// sparse benchmark), parameterized by the fields below.
	Generator string  `json:"generator,omitempty"`
	N         int     `json:"n,omitempty"`           // diag/diagplus: matrix size
	ExtraRows int     `json:"extra_rows,omitempty"`  // diagplus
	ExtraCols int     `json:"extra_cols,omitempty"`  // diagplus
	Txns      int     `json:"txns,omitempty"`        // random/quest
	Items     int     `json:"items,omitempty"`       // random/quest
	Density   float64 `json:"density,omitempty"`     // random
	AvgTxnLen float64 `json:"avg_txn_len,omitempty"` // quest: T
	AvgPatLen float64 `json:"avg_pat_len,omitempty"` // quest: I
	Patterns  int     `json:"patterns,omitempty"`    // quest: pool size L
	Corr      float64 `json:"corr,omitempty"`        // quest: pattern correlation
	Corrupt   float64 `json:"corrupt,omitempty"`     // quest: mean corruption
	Seed      uint64  `json:"seed,omitempty"`        // random/replace/microarray/quest

	// Transform optionally filters the dataset after materialization.
	Transform *TransformSpec `json:"transform,omitempty"`
}

// TransformSpec is the JSON shape of the ingest transform pipeline:
// deterministic row sampling, horizontal and vertical sharding, and
// minimum-item-support pruning, applied in that order.
type TransformSpec struct {
	// Sample keeps each row independently with this probability in
	// (0,1); 0 keeps everything. Deterministic per SampleSeed.
	Sample float64 `json:"sample,omitempty"`
	// SampleSeed seeds the sampling stream.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	// RowLo/RowHi keep the half-open row range [RowLo, RowHi);
	// RowHi 0 = unbounded.
	RowLo int `json:"row_lo,omitempty"`
	RowHi int `json:"row_hi,omitempty"`
	// ItemLo/ItemHi keep the half-open item-ID range; ItemHi 0 =
	// unbounded.
	ItemLo int `json:"item_lo,omitempty"`
	ItemHi int `json:"item_hi,omitempty"`
	// MinItemSupport drops items occurring in fewer kept rows.
	MinItemSupport int `json:"min_item_support,omitempty"`
}

func (ts *TransformSpec) validate() error {
	if ts == nil {
		return nil
	}
	if ts.Sample < 0 || ts.Sample > 1 {
		return fmt.Errorf("server: transform.sample must be in [0,1], got %g", ts.Sample)
	}
	if ts.RowLo < 0 || ts.ItemLo < 0 || ts.RowHi < 0 || ts.ItemHi < 0 {
		return fmt.Errorf("server: transform ranges must be non-negative")
	}
	if ts.RowHi > 0 && ts.RowHi <= ts.RowLo {
		return fmt.Errorf("server: empty transform row range [%d,%d)", ts.RowLo, ts.RowHi)
	}
	if ts.ItemHi > 0 && ts.ItemHi <= ts.ItemLo {
		return fmt.Errorf("server: empty transform item range [%d,%d)", ts.ItemLo, ts.ItemHi)
	}
	if ts.MinItemSupport < 0 {
		return fmt.Errorf("server: transform.min_item_support must be >= 0")
	}
	return nil
}

// transforms builds the ingest pipeline the spec describes.
func (ts *TransformSpec) transforms() []ingest.Transform {
	if ts == nil {
		return nil
	}
	var out []ingest.Transform
	if ts.RowLo > 0 || ts.RowHi > 0 {
		out = append(out, ingest.RowRange(ts.RowLo, ts.RowHi))
	}
	if ts.Sample > 0 && ts.Sample < 1 {
		out = append(out, ingest.SampleRows(ts.Sample, ts.SampleSeed))
	}
	if ts.ItemLo > 0 || ts.ItemHi > 0 {
		out = append(out, ingest.ItemRange(ts.ItemLo, ts.ItemHi))
	}
	if ts.MinItemSupport > 0 {
		out = append(out, ingest.MinItemSupport(ts.MinItemSupport))
	}
	return out
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
	if err := ds.Transform.validate(); err != nil {
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
		switch ds.Generator {
		case "diag":
			if ds.N < 2 {
				return fmt.Errorf("server: diag requires n >= 2")
			}
		case "diagplus":
			if ds.N < 2 || ds.ExtraRows < 1 || ds.ExtraCols < 1 {
				return fmt.Errorf("server: diagplus requires n >= 2, extra_rows >= 1, extra_cols >= 1")
			}
		case "random":
			if ds.Txns < 1 || ds.Items < 1 || ds.Density <= 0 || ds.Density > 1 {
				return fmt.Errorf("server: random requires txns >= 1, items >= 1, density in (0,1]")
			}
		case "replace", "microarray":
			// seed-only
		case "quest":
			for name, v := range map[string]float64{
				"avg_txn_len": ds.AvgTxnLen, "avg_pat_len": ds.AvgPatLen,
				"corr": ds.Corr, "corrupt": ds.Corrupt,
			} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("server: quest %s must be a non-negative finite number", name)
				}
			}
			// datagen's Poisson sampler is exact only for means below its
			// clamp; reject rather than silently generate something else.
			if ds.AvgTxnLen > datagen.MaxQuestMean || ds.AvgPatLen > datagen.MaxQuestMean {
				return fmt.Errorf("server: quest average lengths are capped at %d", datagen.MaxQuestMean)
			}
			if ds.Txns < 0 || ds.Items < 0 || ds.Patterns < 0 {
				return fmt.Errorf("server: quest counts must be >= 0 (0 = default)")
			}
		default:
			return fmt.Errorf("server: unknown generator %q (known: diag, diagplus, random, replace, microarray, quest)", ds.Generator)
		}
	}
	if rows, items, known := ds.sizeBound(); known && overCellCap(rows, items, cfg.MaxCells) {
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

// sizeBound computes |D|×|I| for specs whose shape is known up front.
func (ds DatasetSpec) sizeBound() (rows, items int, known bool) {
	switch {
	case len(ds.Transactions) > 0:
		maxItem := -1
		for _, t := range ds.Transactions {
			for _, it := range t {
				if it > maxItem {
					maxItem = it
				}
			}
		}
		return len(ds.Transactions), maxItem + 1, true
	case ds.Generator == "diag":
		return ds.N, ds.N, true
	case ds.Generator == "diagplus":
		return ds.N + ds.ExtraRows, ds.N + ds.ExtraCols, true
	case ds.Generator == "random":
		return ds.Txns, ds.Items, true
	case ds.Generator == "quest":
		cfg := datagen.DefaultQuestConfig()
		rows, items = cfg.Txns, cfg.Items
		if ds.Txns > 0 {
			rows = ds.Txns
		}
		if ds.Items > 0 {
			items = ds.Items
		}
		return rows, items, true
	}
	return 0, 0, false
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
	case ds.Generator == "diag":
		d = datagen.Diag(ds.N)
	case ds.Generator == "diagplus":
		d = datagen.DiagPlus(ds.N, ds.ExtraRows, ds.ExtraCols)
	case ds.Generator == "random":
		d = datagen.Random(rng.New(ds.Seed), ds.Txns, ds.Items, ds.Density)
	case ds.Generator == "replace":
		d, _ = datagen.Replace(ds.Seed)
	case ds.Generator == "microarray":
		d, _ = datagen.Microarray(ds.Seed)
	case ds.Generator == "quest":
		d = datagen.Quest(rng.New(ds.Seed), datagen.QuestConfig{
			Txns: ds.Txns, Items: ds.Items,
			AvgTxnLen: ds.AvgTxnLen, AvgPatLen: ds.AvgPatLen,
			Patterns: ds.Patterns, Corr: ds.Corr, Corrupt: ds.Corrupt,
		})
	default:
		err = fmt.Errorf("server: empty dataset spec")
	}
	if err != nil {
		return nil, err
	}
	if transforms := ds.Transform.transforms(); len(transforms) > 0 {
		d, _ = ingest.Apply(d, false, transforms...)
	}
	if overCellCap(d.Size(), d.NumItems(), cfg.MaxCells) {
		return nil, fmt.Errorf("server: dataset of %d×%d exceeds the %d-cell cap", d.Size(), d.NumItems(), cfg.MaxCells)
	}
	return d, nil
}
