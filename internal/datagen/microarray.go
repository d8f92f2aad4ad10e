package datagen

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// MicroarrayConfig parameterizes the simulator for the paper's ALL-AML
// leukemia gene-expression dataset (Section 6, Real data set 2).
//
// The published facts the defaults reproduce:
//   - 38 transactions (patient samples), each with exactly 866 items
//     (discretized gene activity levels), 1,736 distinct items in total;
//   - at minimum support count 30 there is a small family (~20) of colossal
//     closed patterns of sizes ≈ 71…110 (Figure 9);
//   - as the support count drops toward 21 the number of frequent patterns
//     explodes, defeating exact miners (Figure 10).
//
// Microarray data is "long": few rows, very many columns, with groups of
// co-expressed genes shared by subsets of samples. The simulator plants
// item-disjoint co-expression blocks, each present in a chosen subset of
// rows; closed patterns are then unions of blocks sharing a common row
// subset, which organically produces the colossal-size spectrum. A chain of
// nested blocks guarantees patterns above size 85 exist. Structured noise
// items with per-item support concentrated just below 30 drive the
// low-support explosion of Figure 10.
type MicroarrayConfig struct {
	NumRows     int // paper: 38
	RowLen      int // items per row, paper: 866
	NumItems    int // item universe, paper: 1736
	ChainSizes  []int
	ChainRows   []int // nested row-set sizes for the chain blocks
	NumBlocks   int   // additional random co-expression blocks
	BlockMin    int   // min random block size
	BlockMax    int   // max random block size
	BlockRowMin int   // min rows a random block occurs in
	BlockRowMax int   // max rows a random block occurs in
	NoiseItems  int   // structured noise items
	NoiseProb   float64
}

// DefaultMicroarrayConfig returns the calibrated configuration matching the
// published dataset statistics.
func DefaultMicroarrayConfig() MicroarrayConfig {
	return MicroarrayConfig{
		NumRows:  38,
		RowLen:   866,
		NumItems: 1736,
		// Nested chain: closed pattern sizes 40, 70, 90, 102, 110 with
		// supports 36, 34, 33, 31, 30 — the guaranteed colossal family.
		ChainSizes: []int{40, 30, 20, 12, 8},
		ChainRows:  []int{36, 34, 33, 31, 30},
		// Random co-expression blocks. Row-set sizes are chosen so that only
		// an occasional *pair* of blocks shares ≥ 30 rows (two 35-row sets
		// always do, two 31-row sets rarely do) — each such pair contributes
		// one colossal closed union, while triples and larger combinations
		// almost never stay above support 30. This yields the paper's ~20
		// colossal patterns rather than a combinatorial explosion of block
		// unions.
		NumBlocks:   16,
		BlockMin:    25,
		BlockMax:    40,
		BlockRowMin: 31,
		BlockRowMax: 35,
		NoiseItems:  400,
		NoiseProb:   0.58,
	}
}

// Block is one planted co-expression group: a set of items that appear
// together in exactly the rows of Rows.
type Block struct {
	Items itemset.Itemset
	Rows  []int // row indices, sorted
}

// Microarray generates the ALL simulator dataset with the default
// configuration. It returns the dataset and the planted blocks (for
// inspection and calibration tests).
func Microarray(seed uint64) (*dataset.Dataset, []Block) {
	cfg := DefaultMicroarrayConfig()
	r := rng.New(seed)

	next := 0 // next unallocated item ID
	alloc := func(k int) itemset.Itemset {
		items := make(itemset.Itemset, k)
		for i := range items {
			items[i] = next
			next++
		}
		return items
	}

	var blocks []Block

	// Nested chain: rows(c1) ⊇ rows(c2) ⊇ … so the intersection of rows(ck)
	// contains c1 ∪ … ∪ ck, giving cumulative colossal closed patterns.
	chainRows := r.Perm(cfg.NumRows)
	for i, sz := range cfg.ChainSizes {
		rows := append([]int(nil), chainRows[:cfg.ChainRows[i]]...)
		sort.Ints(rows)
		blocks = append(blocks, Block{Items: alloc(sz), Rows: rows})
	}

	// Random co-expression blocks.
	for b := 0; b < cfg.NumBlocks; b++ {
		sz := cfg.BlockMin + r.Intn(cfg.BlockMax-cfg.BlockMin+1)
		nr := cfg.BlockRowMin + r.Intn(cfg.BlockRowMax-cfg.BlockRowMin+1)
		rows := r.SampleInts(cfg.NumRows, nr)
		sort.Ints(rows)
		blocks = append(blocks, Block{Items: alloc(sz), Rows: rows})
	}

	// Structured noise: items with support concentrated below the paper's
	// σ = 30 threshold, so they become frequent (and explosive) only as the
	// threshold drops (Figure 10).
	noise := alloc(cfg.NoiseItems)

	// Filler pool: everything left in the universe; low-support padding
	// used to bring every row to exactly RowLen items.
	if next > cfg.NumItems {
		panic("datagen: item universe too small for configured blocks")
	}
	fillerStart := next

	rowItems := make([]map[int]bool, cfg.NumRows)
	for i := range rowItems {
		rowItems[i] = make(map[int]bool, cfg.RowLen)
	}
	for _, b := range blocks {
		for _, row := range b.Rows {
			for _, item := range b.Items {
				rowItems[row][item] = true
			}
		}
	}
	for _, item := range noise {
		for row := 0; row < cfg.NumRows; row++ {
			if r.Float64() < cfg.NoiseProb {
				rowItems[row][item] = true
			}
		}
	}
	// Pad (or, if over-full, trim noise) to exactly RowLen per row.
	fillerCount := cfg.NumItems - fillerStart
	for row := 0; row < cfg.NumRows; row++ {
		m := rowItems[row]
		for len(m) > cfg.RowLen {
			// Trim an arbitrary noise item (never a planted block item).
			trimmed := false
			for _, item := range noise {
				if m[item] {
					delete(m, item)
					trimmed = true
					break
				}
			}
			if !trimmed {
				panic("datagen: row over-full with block items alone; enlarge RowLen")
			}
		}
		for len(m) < cfg.RowLen {
			if fillerCount <= 0 {
				panic("datagen: filler pool exhausted; enlarge NumItems")
			}
			m[fillerStart+r.Intn(fillerCount)] = true
		}
	}

	txns := make([][]int, cfg.NumRows)
	for row := range txns {
		t := make([]int, 0, cfg.RowLen)
		for item := range rowItems[row] {
			t = append(t, item)
		}
		sort.Ints(t)
		txns[row] = t
	}
	return dataset.MustNew(txns), blocks
}
