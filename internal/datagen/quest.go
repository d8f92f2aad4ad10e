package datagen

import (
	"cmp"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// QuestConfig parameterizes the IBM Quest-style synthetic market-basket
// generator (Agrawal & Srikant's T..I..D.. family — T10I4D100K and
// friends), the classic sparse benchmark shape that complements this
// repository's dense workloads. The defaults are T10I4-shaped at a
// test-friendly 10k transactions; scale Txns up for benchmark files.
type QuestConfig struct {
	// Txns is the number of transactions (the D of T10I4D100K).
	Txns int
	// Items is the item universe size (classic: 1000).
	Items int
	// AvgTxnLen is the mean transaction length T; per-transaction
	// lengths are Poisson-distributed around it.
	AvgTxnLen float64
	// AvgPatLen is the mean size I of the potential maximal patterns;
	// per-pattern sizes are Poisson-distributed around it.
	AvgPatLen float64
	// Patterns is the size L of the potential-pattern pool (classic:
	// 2000; smaller pools give denser correlations).
	Patterns int
	// Corr is the expected fraction of a pattern's items carried over
	// from the previous pool pattern, modelling correlated patterns
	// (classic: 0.5).
	Corr float64
	// Corrupt is the mean per-pattern corruption level: the probability
	// that an item of a chosen pattern is dropped from a transaction
	// (classic: 0.5). Per-pattern levels are uniform in [0, 2·Corrupt],
	// clamped to [0, 0.95].
	Corrupt float64
}

// DefaultQuestConfig returns the T10I4-shaped defaults: 10k transactions
// over 1000 items, mean length 10, pattern pool of 200 patterns of mean
// size 4, correlation and corruption 0.5.
func DefaultQuestConfig() QuestConfig {
	return QuestConfig{
		Txns:      10000,
		Items:     1000,
		AvgTxnLen: 10,
		AvgPatLen: 4,
		Patterns:  200,
		Corr:      0.5,
		Corrupt:   0.5,
	}
}

// Quest generates a Quest-style transaction database from r under cfg:
// a pool of cfg.Patterns potential maximal itemsets (Poisson sizes,
// each sharing ~Corr of its items with its predecessor, exponential
// pick weights, a per-pattern corruption level), then cfg.Txns
// transactions of Poisson length filled by drawing patterns by weight
// and dropping each item with the pattern's corruption probability.
// Zero or negative config fields take their DefaultQuestConfig values.
// The generator is sequential-deterministic: equal (r seed, cfg) yield
// the identical dataset.
func Quest(r *rng.RNG, cfg QuestConfig) *dataset.Dataset {
	def := DefaultQuestConfig()
	cfg.Txns = cmp.Or(max(cfg.Txns, 0), def.Txns)
	cfg.Items = cmp.Or(max(cfg.Items, 0), def.Items)
	cfg.AvgTxnLen = cmp.Or(max(cfg.AvgTxnLen, 0), def.AvgTxnLen)
	cfg.AvgPatLen = cmp.Or(max(cfg.AvgPatLen, 0), def.AvgPatLen)
	cfg.Patterns = cmp.Or(max(cfg.Patterns, 0), def.Patterns)
	cfg.Corr = cmp.Or(max(cfg.Corr, 0), def.Corr)
	if cfg.Corrupt < 0 { // zero corruption is a valid level
		cfg.Corrupt = def.Corrupt
	}

	pool, weights, corrupt := questPool(r, cfg)

	txns := make([][]int, cfg.Txns)
	inTxn := make([]bool, cfg.Items)
	for t := range txns {
		want := poisson(r, cfg.AvgTxnLen)
		if want < 1 {
			want = 1
		}
		if want > cfg.Items {
			want = cfg.Items
		}
		txn := make([]int, 0, want)
		// Classic Quest keeps drawing patterns until the transaction is
		// full; heavily corrupted draws can contribute nothing, so an
		// attempt budget bounds the loop.
		for attempts := 0; len(txn) < want && attempts < 4*want+8; attempts++ {
			p := r.WeightedIndex(weights)
			for _, item := range pool[p] {
				if len(txn) >= want {
					break
				}
				if inTxn[item] || r.Float64() < corrupt[p] {
					continue
				}
				inTxn[item] = true
				txn = append(txn, item)
			}
		}
		for _, item := range txn {
			inTxn[item] = false
		}
		txns[t] = txn
	}
	return dataset.MustNew(txns)
}

// questPool builds the potential maximal pattern pool: sizes are
// Poisson(AvgPatLen) (min 1), pattern i reuses ~Corr of its items from
// pattern i−1, pick weights are exponential (normalized by construction
// of WeightedIndex), and each pattern gets a corruption level.
func questPool(r *rng.RNG, cfg QuestConfig) (pool [][]int, weights, corrupt []float64) {
	pool = make([][]int, cfg.Patterns)
	weights = make([]float64, cfg.Patterns)
	corrupt = make([]float64, cfg.Patterns)
	used := make([]bool, cfg.Items)
	var prev []int
	for i := range pool {
		size := poisson(r, cfg.AvgPatLen)
		if size < 1 {
			size = 1
		}
		if size > cfg.Items {
			size = cfg.Items
		}
		pat := make([]int, 0, size)
		// Carry over a Corr-sized share of the previous pattern to make
		// consecutive pool patterns correlated.
		if len(prev) > 0 {
			carry := int(cfg.Corr*float64(size) + 0.5)
			if carry > len(prev) {
				carry = len(prev)
			}
			for _, idx := range r.SampleInts(len(prev), carry) {
				if !used[prev[idx]] {
					used[prev[idx]] = true
					pat = append(pat, prev[idx])
				}
			}
		}
		for len(pat) < size {
			item := r.Intn(cfg.Items)
			if used[item] {
				continue
			}
			used[item] = true
			pat = append(pat, item)
		}
		for _, item := range pat {
			used[item] = false
		}
		sort.Ints(pat)
		pool[i] = pat
		prev = pat
		// Exponentially distributed pick weight (mean 1).
		weights[i] = -math.Log(1 - r.Float64())
		c := r.Float64() * 2 * cfg.Corrupt
		if c > 0.95 {
			c = 0.95
		}
		corrupt[i] = c
	}
	return pool, weights, corrupt
}

// MaxQuestMean bounds AvgTxnLen and AvgPatLen: Knuth's
// product-of-uniforms Poisson sampler needs exp(-λ) to stay a normal
// float64 (it underflows to 0 near λ ≈ 745, turning the draw into a
// degenerate underflow hitting time). Quest's sampler clamps its means
// to this — far above any sensible transaction length — and Spec.Validate
// rejects a recipe above it.
const MaxQuestMean = 500

// poisson draws a Poisson(lambda) variate (Knuth's product-of-uniforms
// method; exact for the clamped lambdas Quest uses).
func poisson(r *rng.RNG, lambda float64) int {
	if lambda > MaxQuestMean {
		lambda = MaxQuestMean
	}
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
