package ingest

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// Transform filters rows and items during ingestion. Both predicates
// must be pure functions of their arguments — KeepRow in particular is
// evaluated once per pass and must answer identically both times — which
// is what makes the streaming builder and the in-memory Apply agree.
// Rows are numbered by decoded position (comments excluded, blank lines
// included) starting at 0; items are source item IDs with their support
// count over the kept rows.
type Transform interface {
	// Name identifies the transform in error messages and docs.
	Name() string
	// KeepRow reports whether row (by source position) survives.
	KeepRow(row int) bool
	// KeepItem reports whether an item with the given support count over
	// the kept rows survives.
	KeepItem(item, freq int) bool
}

// keepAll is the embeddable no-op base of the concrete transforms.
type keepAll struct{}

func (keepAll) KeepRow(int) bool       { return true }
func (keepAll) KeepItem(int, int) bool { return true }

// SampleRows keeps each row independently with probability rate. The
// decision for row i is rng.Stream(seed, i) — a pure function of
// (seed, i) — so the sample is deterministic, independent of decode
// order, and stable across the two ingestion passes. Rates >= 1 keep
// everything; rates <= 0 keep nothing.
func SampleRows(rate float64, seed uint64) Transform {
	return sampleRows{rate: rate, seed: seed}
}

type sampleRows struct {
	keepAll
	rate float64
	seed uint64
}

func (s sampleRows) Name() string { return fmt.Sprintf("sample(%g)", s.rate) }

func (s sampleRows) KeepRow(row int) bool {
	if s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	return rng.Stream(s.seed, uint64(row)).Float64() < s.rate
}

// RowRange keeps the half-open row range [lo, hi) — a horizontal shard.
// hi <= 0 means unbounded.
func RowRange(lo, hi int) Transform { return rowRange{lo: lo, hi: hi} }

type rowRange struct {
	keepAll
	lo, hi int
}

func (r rowRange) Name() string { return fmt.Sprintf("rows[%d:%d)", r.lo, r.hi) }

func (r rowRange) KeepRow(row int) bool {
	return row >= r.lo && (r.hi <= 0 || row < r.hi)
}

// ItemRange keeps the half-open source item-ID range [lo, hi) — a
// vertical shard. hi <= 0 means unbounded.
func ItemRange(lo, hi int) Transform { return itemRange{lo: lo, hi: hi} }

type itemRange struct {
	keepAll
	lo, hi int
}

func (r itemRange) Name() string { return fmt.Sprintf("items[%d:%d)", r.lo, r.hi) }

func (r itemRange) KeepItem(item, _ int) bool {
	return item >= r.lo && (r.hi <= 0 || item < r.hi)
}

// MinItemSupport drops items occurring in fewer than min kept rows —
// the classic frequent-miner preprocessing step, applied once at
// ingestion instead of inside every algorithm.
func MinItemSupport(min int) Transform { return minItemSupport{min: min} }

type minItemSupport struct {
	keepAll
	min int
}

func (m minItemSupport) Name() string { return fmt.Sprintf("min-item-support(%d)", m.min) }

func (m minItemSupport) KeepItem(_, freq int) bool { return freq >= m.min }

// TransformSpec describes a transform pipeline as data: deterministic
// row sampling, horizontal and vertical sharding, and minimum item
// support pruning, applied in that order. pfserve decodes it from a
// job's dataset spec under these json names, and Flags fills it from
// the command line; both check it with Validate and build it with
// Transforms. The zero value keeps everything.
type TransformSpec struct {
	// Sample keeps each row independently with this probability in
	// [0,1]; 0 and 1 keep every row. Deterministic per SampleSeed.
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

// Validate checks the spec's ranges. A nil spec is valid.
func (ts *TransformSpec) Validate() error {
	if ts == nil {
		return nil
	}
	if !(ts.Sample >= 0 && ts.Sample <= 1) {
		return fmt.Errorf("ingest: transform sample must be in [0,1], got %g", ts.Sample)
	}
	if ts.RowLo < 0 || ts.ItemLo < 0 || ts.RowHi < 0 || ts.ItemHi < 0 || ts.MinItemSupport < 0 {
		return fmt.Errorf("ingest: transform ranges and min_item_support must be non-negative")
	}
	if ts.RowHi > 0 && ts.RowHi <= ts.RowLo {
		return fmt.Errorf("ingest: empty transform row range [%d,%d)", ts.RowLo, ts.RowHi)
	}
	if ts.ItemHi > 0 && ts.ItemHi <= ts.ItemLo {
		return fmt.Errorf("ingest: empty transform item range [%d,%d)", ts.ItemLo, ts.ItemHi)
	}
	return nil
}

// Transforms builds the pipeline a valid spec describes, leaving out
// every stage that would keep everything; a nil spec builds none.
func (ts *TransformSpec) Transforms() []Transform {
	if ts == nil {
		return nil
	}
	var out []Transform
	if ts.RowLo > 0 || ts.RowHi > 0 {
		out = append(out, RowRange(ts.RowLo, ts.RowHi))
	}
	if ts.Sample > 0 && ts.Sample < 1 {
		out = append(out, SampleRows(ts.Sample, ts.SampleSeed))
	}
	if ts.ItemLo > 0 || ts.ItemHi > 0 {
		out = append(out, ItemRange(ts.ItemLo, ts.ItemHi))
	}
	if ts.MinItemSupport > 0 {
		out = append(out, MinItemSupport(ts.MinItemSupport))
	}
	return out
}

// keepRow reports whether every transform keeps the row.
func keepRow(transforms []Transform, row int) bool {
	for _, t := range transforms {
		if !t.KeepRow(row) {
			return false
		}
	}
	return true
}

// keepItem reports whether every transform keeps the item.
func keepItem(transforms []Transform, item, freq int) bool {
	for _, t := range transforms {
		if !t.KeepItem(item, freq) {
			return false
		}
	}
	return true
}

// itemPlan is the pass-1 outcome shared by the streaming builder and
// Apply: the old→new item translation (−1 = dropped), the new universe
// size, and the new→old mapping when remapping is on (nil otherwise).
type itemPlan struct {
	translate []int
	universe  int
	mapping   []int
}

// planItems decides, from the per-item frequencies over the kept rows,
// which items survive and what IDs they get. Without remap survivors
// keep their source IDs and the universe shrinks to the largest
// survivor + 1 (exactly what dataset.New computes for the filtered
// transactions). With remap survivors are renumbered 0..n−1 in
// decreasing frequency order, ties broken by increasing source ID.
func planItems(freq []int, transforms []Transform, remap bool) itemPlan {
	p := itemPlan{translate: make([]int, len(freq))}
	kept := make([]int, 0, len(freq))
	for item, f := range freq {
		p.translate[item] = -1
		if f > 0 && keepItem(transforms, item, f) {
			kept = append(kept, item)
		}
	}
	if !remap {
		for _, item := range kept {
			p.translate[item] = item
			p.universe = item + 1 // kept is increasing, so the last wins
		}
		return p
	}
	sort.Slice(kept, func(i, j int) bool {
		if freq[kept[i]] != freq[kept[j]] {
			return freq[kept[i]] > freq[kept[j]]
		}
		return kept[i] < kept[j]
	})
	p.mapping = make([]int, len(kept))
	for rank, item := range kept {
		p.translate[item] = rank
		p.mapping[rank] = item
	}
	p.universe = len(kept)
	return p
}

// Apply runs the transform pipeline (and optional frequency remap) over
// an already-materialized dataset, with semantics identical to ingesting
// the dataset's serialized form: row i of d is source row i. It returns
// the filtered dataset and, when remap is on, the new→old item mapping.
// This is the in-memory twin the streaming builder is tested against,
// and what pfgen/pfserve use to shard generated datasets.
func Apply(d *dataset.Dataset, remap bool, transforms ...Transform) (*dataset.Dataset, []int) {
	var keptRows []itemset.Itemset
	maxItem := -1
	for row, txn := range d.Transactions() {
		if !keepRow(transforms, row) {
			continue
		}
		keptRows = append(keptRows, txn)
		for _, item := range txn {
			if item > maxItem {
				maxItem = item
			}
		}
	}
	freq := make([]int, maxItem+1)
	for _, txn := range keptRows {
		for _, item := range txn {
			freq[item]++
		}
	}
	plan := planItems(freq, transforms, remap)
	txns := make([][]int, len(keptRows))
	for i, txn := range keptRows {
		out := make([]int, 0, len(txn))
		for _, item := range txn {
			if nt := plan.translate[item]; nt >= 0 {
				out = append(out, nt)
			}
		}
		txns[i] = out
	}
	return dataset.MustNew(txns), plan.mapping
}
