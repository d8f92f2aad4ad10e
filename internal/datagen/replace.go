package datagen

import (
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// ReplaceConfig parameterizes the simulator for the paper's "Replace"
// program-trace dataset (Siemens suite; Section 6, Real data set 1).
//
// The published facts the defaults reproduce:
//   - 4,395 transactions (correct executions of the `replace` program),
//   - 57 distinct items (program calls/transitions),
//   - at σ = 0.03 the complete closed set has ≈ 4,315 patterns,
//   - the three largest patterns have size 44, and they are colossal
//     relative to the rest of the distribution.
//
// The simulator plants three overlapping size-44 "full execution path"
// patterns (common backbone of 40 calls plus 4 variant-specific calls each);
// the remaining transactions are early-exit executions: *prefixes* of the
// backbone call sequence, the way real traces truncate.
//
// A fraction of the planted executions follows one of a fixed, small family
// of branch-skipping variants (the path minus a predefined drop-set, with
// the drop-sets organized as independent singletons plus one nested chain);
// this creates the population of large-but-not-colossal closed patterns
// (sizes 38–43) that Figure 8 sweeps over, while keeping the total
// closed-pattern count in the low thousands, matching the published 4,315.
//
// Two designs that do NOT work, for the record: (a) dropping random calls
// per execution makes the number of distinct row-intersections — hence
// closed patterns — grow exponentially with the number of dropping rows;
// (b) unstructured random noise transactions make every backbone subset a
// distinct closed pattern (2^40 of them). Real traces exhibit neither
// explosion because executions share structure; prefixes + fixed variants
// model that.
type ReplaceConfig struct {
	NumTxns      int     // total transactions (paper: 4395)
	NumItems     int     // item universe (paper: 57)
	BackboneSize int     // calls shared by all three colossal paths
	VariantSize  int     // extra calls per colossal path (size = backbone+variant)
	PerPath      int     // planted transactions per colossal path
	DropProb     float64 // probability a planted execution follows a skip variant
	SingleDrops  int     // independent 1-call skip variants (shared by all paths)
	ChainDrops   int     // nested skip variants (sizes 2, 3, …), shared by all paths
	NoiseMinLen  int     // min length of an early-exit (prefix) transaction
	NoiseMaxLen  int     // max length of an early-exit transaction
	ExtraProb    float64 // probability a transaction carries one incidental extra call
}

// DefaultReplaceConfig returns the calibrated configuration matching the
// published dataset statistics.
func DefaultReplaceConfig() ReplaceConfig {
	return ReplaceConfig{
		NumTxns:      4395,
		NumItems:     57,
		BackboneSize: 40,
		VariantSize:  4,
		PerPath:      220,
		DropProb:     0.35,
		SingleDrops:  7,
		ChainDrops:   5,
		NoiseMinLen:  3,
		NoiseMaxLen:  14,
		ExtraProb:    0.4,
	}
}

// ReplaceColossalSize is the size of the three planted colossal patterns.
const ReplaceColossalSize = 44

// Replace generates the Replace simulator dataset with the default
// configuration. The second return value lists the three planted colossal
// patterns (each of size 44).
func Replace(seed uint64) (*dataset.Dataset, []itemset.Itemset) {
	cfg := DefaultReplaceConfig()
	r := rng.New(seed)
	size := cfg.BackboneSize + cfg.VariantSize

	// Backbone: items 0 .. BackboneSize-1.
	backbone := make([]int, cfg.BackboneSize)
	for i := range backbone {
		backbone[i] = i
	}
	// Three variant item groups right after the backbone.
	paths := make([]itemset.Itemset, 3)
	for p := 0; p < 3; p++ {
		items := make([]int, 0, size)
		items = append(items, backbone...)
		for v := 0; v < cfg.VariantSize; v++ {
			items = append(items, cfg.BackboneSize+p*cfg.VariantSize+v)
		}
		paths[p] = itemset.Canonical(items)
	}
	firstNoise := cfg.BackboneSize + 3*cfg.VariantSize // noise-only items start here

	txns := make([][]int, 0, cfg.NumTxns)
	// Planted executions of each colossal path. Most executions run the full
	// path, the rest skip the calls of one predefined variant. The variants
	// are ONE family of backbone-call drop-sets shared by all three paths
	// (SingleDrops independent 1-call skips plus a nested chain of growing
	// skips): sharing matters, because closed patterns arise from
	// intersections of planted rows across paths, and per-path drop
	// families would multiply into |family|^3 distinct intersections.
	var drops [][]int
	dropItems := r.SampleInts(cfg.BackboneSize, cfg.SingleDrops+cfg.ChainDrops+1)
	for v := 0; v < cfg.SingleDrops; v++ {
		drops = append(drops, []int{dropItems[v]})
	}
	chainBase := dropItems[cfg.SingleDrops:]
	for c := 0; c < cfg.ChainDrops; c++ {
		drops = append(drops, append([]int(nil), chainBase[:c+2]...))
	}
	for p := 0; p < 3; p++ {
		for i := 0; i < cfg.PerPath; i++ {
			var t []int
			if len(drops) > 0 && r.Float64() < cfg.DropProb {
				// An execution that skipped the branches of one variant.
				skip := make(map[int]bool)
				for _, item := range drops[r.Intn(len(drops))] {
					skip[item] = true
				}
				for _, item := range paths[p] {
					if !skip[item] {
						t = append(t, item)
					}
				}
			} else {
				t = append([]int(nil), paths[p]...)
			}
			// An occasional incidental extra call so each path stays closed
			// (no item outside the path is in *every* planted execution).
			if r.Float64() < cfg.ExtraProb {
				t = append(t, firstNoise+r.Intn(cfg.NumItems-firstNoise))
			}
			txns = append(txns, t)
		}
	}
	// Early-exit executions: prefixes of the backbone call sequence, with an
	// occasional incidental extra call.
	for len(txns) < cfg.NumTxns {
		l := cfg.NoiseMinLen + r.Intn(cfg.NoiseMaxLen-cfg.NoiseMinLen+1)
		if l > cfg.BackboneSize {
			l = cfg.BackboneSize
		}
		t := append([]int(nil), backbone[:l]...)
		if r.Float64() < cfg.ExtraProb {
			t = append(t, firstNoise+r.Intn(cfg.NumItems-firstNoise))
		}
		txns = append(txns, t)
	}
	r.Shuffle(len(txns), func(i, j int) { txns[i], txns[j] = txns[j], txns[i] })
	return dataset.MustNew(txns), paths
}
