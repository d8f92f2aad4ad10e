package patternfusion

import (
	"context"
	"io"

	"repro/internal/charm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/ingest"
	"repro/internal/itemset"
	"repro/internal/maximal"
	"repro/internal/quality"
	"repro/internal/rng"
)

// Dataset is an immutable transaction database over non-negative integer
// item IDs, holding both horizontal (transactions) and vertical (per-item
// TID-set) representations.
type Dataset = dataset.Dataset

// Pattern is a frequent itemset paired with its support set.
type Pattern = dataset.Pattern

// Itemset is a canonical (strictly increasing) set of item IDs.
type Itemset = itemset.Itemset

// Stats summarizes a dataset.
type Stats = dataset.Stats

// New builds a Dataset from raw transactions; each transaction is
// canonicalized. Item IDs must be non-negative.
func New(transactions [][]int) (*Dataset, error) { return dataset.New(transactions) }

// Load reads a FIMI-format transaction database (one transaction per line,
// whitespace-separated item IDs; gzip is detected) from the named file.
func Load(path string) (*Dataset, error) {
	res, err := ingest.Load(path, ingest.Options{Format: ingest.FIMI()})
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// Read parses a FIMI-format transaction database from r.
func Read(r io.Reader) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	res, err := ingest.FromBytes("input", data, ingest.Options{Format: ingest.FIMI()})
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// Canonical returns the sorted, duplicate-free itemset of raw.
func Canonical(raw []int) Itemset { return itemset.Canonical(raw) }

// EditDistance is the itemset edit distance Edit(α,β) = |α∪β| − |α∩β|
// (Definition 8 of the paper).
func EditDistance(a, b Itemset) int { return itemset.EditDistance(a, b) }

// ---------------------------------------------------------------------------
// The unified mining engine: every algorithm in the repository — the
// paper's Pattern-Fusion ("fusion") among them — behind one context-first,
// observable interface, addressable by name. MineWith is the library's
// only mining entry point.

// Engine is the uniform algorithm interface: Name,
// Mine(ctx, dataset, options) and Plan(ctx, dataset, options), the run's
// task-unit decomposition. All nine miners implement it and register
// themselves; see Algorithms for the names.
type Engine = engine.Algorithm

// Options is the shared parameter set of the unified engine; zero values
// select per-algorithm defaults.
type Options = engine.Options

// Report is the uniform outcome of an engine run: the mined patterns
// (largest first) plus iteration/visit counters, the Stopped flag, and
// Warnings for any set Options fields the algorithm ignored. It is a
// pure function of (algorithm, dataset, Options) — bit-identical for
// every Options.Parallelism value.
type Report = engine.Report

// Event is a structured progress observation delivered to
// Options.Observer.
type Event = engine.Event

// Observer receives progress events during an engine run.
type Observer = engine.Observer

// Algorithms returns the names of all registered algorithms: "apriori",
// "closed", "closedrows", "eclat", "fpgrowth", "fusion", "maximal",
// "seqfusion", "topk".
func Algorithms() []string { return engine.Names() }

// GetAlgorithm returns the registered algorithm with the given name.
func GetAlgorithm(name string) (Engine, error) { return engine.Get(name) }

// MineWith runs the named registered algorithm on d under opts: the
// library-level equivalent of `pfmine -algo name` and of a pfserve job.
// Pattern-Fusion is MineWith(ctx, "fusion", d, Options{K: k, MinSupport:
// σ}); cancellation and deadlines are context-first, and a canceled run
// returns a partial Report with Stopped=true.
func MineWith(ctx context.Context, name string, d *Dataset, opts Options) (*Report, error) {
	a, err := engine.Get(name)
	if err != nil {
		return nil, err
	}
	return a.Mine(ctx, d, opts)
}

// Radius returns the ball radius r(τ) = 1 − 1/(2/τ − 1) of Theorem 2.
func Radius(tau float64) float64 { return core.Radius(tau) }

// IsCore reports whether beta is a τ-core pattern of alpha (Definition 3).
func IsCore(d *Dataset, beta, alpha Itemset, tau float64) bool {
	return core.IsCore(d, beta, alpha, tau)
}

// CorePatterns enumerates the τ-core patterns of alpha (small alpha only).
func CorePatterns(d *Dataset, alpha Itemset, tau float64) []Itemset {
	return core.CorePatterns(d, alpha, tau)
}

// Robustness returns the d of (d,τ)-robustness (Definition 4).
func Robustness(d *Dataset, alpha Itemset, tau float64) int {
	return core.Robustness(d, alpha, tau)
}

// ---------------------------------------------------------------------------
// Pattern predicates (for checking the exact miners' answer sets).

// IsClosed reports whether alpha is a closed pattern of d.
func IsClosed(d *Dataset, alpha Itemset) bool { return charm.IsClosed(d, alpha) }

// IsMaximal reports whether alpha is a maximal frequent pattern of d.
func IsMaximal(d *Dataset, alpha Itemset, minCount int) bool {
	return maximal.IsMaximal(d, alpha, minCount)
}

// Itemsets projects patterns to their itemsets.
func Itemsets(ps []*Pattern) []Itemset { return dataset.Itemsets(ps) }

// ---------------------------------------------------------------------------
// Quality evaluation model (Section 5).

// Approximation is the evaluation A_P^Q of a result set P against a
// complete set Q.
type Approximation = quality.Approximation

// Evaluate computes the approximation of P with respect to Q
// (Definitions 9 and 10).
func Evaluate(p, q []Itemset) *Approximation { return quality.Evaluate(p, q) }

// Delta returns the approximation error Δ(A_P^Q).
func Delta(p, q []Itemset) float64 { return quality.Delta(p, q) }

// ---------------------------------------------------------------------------
// Dataset generators (Section 6 workloads).

// Diag builds the synthetic Diag_n dataset: n rows, row i containing every
// item of {0,…,n−1} except i.
func Diag(n int) *Dataset { return datagen.Diag(n) }

// DiagPlus builds the paper's motivating example: Diag_n plus extraRows
// identical rows of extraWidth fresh items.
func DiagPlus(n, extraRows, extraWidth int) *Dataset {
	return datagen.DiagPlus(n, extraRows, extraWidth)
}

// ReplaceSim generates the Replace program-trace simulator dataset and its
// three planted size-44 colossal patterns.
func ReplaceSim(seed uint64) (*Dataset, []Itemset) { return datagen.Replace(seed) }

// MicroarraySim generates the ALL-leukemia microarray simulator dataset
// (38 rows × 866 items over a 1,736-item universe).
func MicroarraySim(seed uint64) *Dataset {
	d, _ := datagen.Microarray(seed)
	return d
}

// RandomDB generates a random transaction database where each of numItems
// items appears in each of numTxns transactions with probability density.
func RandomDB(seed uint64, numTxns, numItems int, density float64) *Dataset {
	return datagen.Random(rng.New(seed), numTxns, numItems, density)
}
