package datagen

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// Spec is a generator recipe: the name of one of this package's
// workloads and its parameters. It is the one place that names, checks,
// sizes and builds them; pfgen fills it from flags and pfserve decodes
// it from a job's dataset spec under these json names. Fields a
// generator does not read are ignored.
type Spec struct {
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
}

// Validate reports whether Build can make the recipe exactly as given:
// a known generator whose parameters are in range. Quest's zero
// parameters select DefaultQuestConfig's values; its average lengths
// are capped at MaxQuestMean, where the generator would otherwise clamp
// them and make something else than asked for. No recipe may make more
// rows than a TID-set can index (math.MaxUint32).
func (s Spec) Validate() error {
	switch s.Generator {
	case "diag":
		if s.N < 2 {
			return fmt.Errorf("datagen: diag requires n >= 2")
		}
	case "diagplus":
		if s.N < 2 || s.ExtraRows < 1 || s.ExtraCols < 1 {
			return fmt.Errorf("datagen: diagplus requires n >= 2, extra_rows >= 1, extra_cols >= 1")
		}
	case "random":
		if s.Txns < 1 || s.Items < 1 || !(s.Density > 0 && s.Density <= 1) {
			return fmt.Errorf("datagen: random requires txns >= 1, items >= 1, density in (0,1]")
		}
	case "replace", "microarray":
		// seed-only
	case "quest":
		// Written so that NaN fails every test.
		if !(s.AvgTxnLen >= 0 && s.AvgTxnLen <= MaxQuestMean && s.AvgPatLen >= 0 && s.AvgPatLen <= MaxQuestMean) {
			return fmt.Errorf("datagen: quest avg_txn_len and avg_pat_len must be in [0,%d]", MaxQuestMean)
		}
		if !(s.Corr >= 0 && s.Corr <= math.MaxFloat64 && s.Corrupt >= 0 && s.Corrupt <= math.MaxFloat64) {
			return fmt.Errorf("datagen: quest corr and corrupt must be non-negative finite numbers")
		}
		if s.Txns < 0 || s.Items < 0 || s.Patterns < 0 {
			return fmt.Errorf("datagen: quest counts must be >= 0 (0 = default)")
		}
	default:
		return fmt.Errorf("datagen: unknown generator %q (known: diag, diagplus, random, replace, microarray, quest)", s.Generator)
	}
	if rows, _ := s.Shape(); rows > math.MaxUint32 {
		return fmt.Errorf("datagen: %s would make %d rows, above the %d a TID-set can index", s.Generator, rows, math.MaxUint32)
	}
	return nil
}

// Shape bounds the dataset Build makes from a valid recipe, without
// building it: its row count and its item universe (every item ID is
// below items), so a caller can refuse an oversized recipe before paying
// for it. Sums saturate at math.MaxInt instead of wrapping. An unknown
// generator has shape (0, 0).
func (s Spec) Shape() (rows, items int) {
	switch s.Generator {
	case "diag":
		return s.N, s.N
	case "diagplus":
		return s.N + min(s.ExtraRows, math.MaxInt-s.N), s.N + min(s.ExtraCols, math.MaxInt-s.N)
	case "random":
		return s.Txns, s.Items
	case "replace":
		cfg := DefaultReplaceConfig()
		return cfg.NumTxns, cfg.NumItems
	case "microarray":
		cfg := DefaultMicroarrayConfig()
		return cfg.NumRows, cfg.NumItems
	case "quest":
		cfg := DefaultQuestConfig()
		return cmp.Or(s.Txns, cfg.Txns), cmp.Or(s.Items, cfg.Items)
	}
	return 0, 0
}

// Build makes the dataset of a valid recipe, together with the planted
// colossal patterns the generator reports (Replace's three paths; nil
// for the others). It panics on a recipe Validate rejects.
func (s Spec) Build() (*dataset.Dataset, []itemset.Itemset) {
	switch s.Generator {
	case "diag":
		return Diag(s.N), nil
	case "diagplus":
		return DiagPlus(s.N, s.ExtraRows, s.ExtraCols), nil
	case "random":
		return Random(rng.New(s.Seed), s.Txns, s.Items, s.Density), nil
	case "replace":
		return Replace(s.Seed)
	case "microarray":
		d, _ := Microarray(s.Seed)
		return d, nil
	case "quest":
		return Quest(rng.New(s.Seed), QuestConfig{
			Txns: s.Txns, Items: s.Items,
			AvgTxnLen: s.AvgTxnLen, AvgPatLen: s.AvgPatLen,
			Patterns: s.Patterns, Corr: s.Corr, Corrupt: s.Corrupt,
		}), nil
	}
	panic(fmt.Sprintf("datagen: Build of unknown generator %q", s.Generator))
}
