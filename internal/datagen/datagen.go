// Package datagen generates the datasets used in the paper's evaluation
// (Section 6) and random transaction databases for property-based testing.
//
// Two of the paper's datasets are real and not redistributable here
// (the Siemens "Replace" program traces and the ALL-AML leukemia microarray
// data), so this package provides planted-pattern simulators that reproduce
// their published summary statistics and — more importantly — the structural
// properties the experiments depend on: a handful of robust colossal
// patterns on top of an explosive mid-sized pattern background.
// PAPER_MAP.md lists the substitutions.
package datagen

import (
	"repro/internal/dataset"
	"repro/internal/rng"
)

// Diag builds the Diag_n dataset of Section 1/6: an n×(n−1) table whose
// i-th row contains every item of {0,…,n−1} except i. Every itemset α has
// support count exactly n − |α| (each row misses one item), so with minimum
// support count n/2 the maximal frequent patterns are exactly the
// ⌊n/2⌋-subsets — an exponential mid-sized plateau with no colossal pattern,
// the worst case for exhaustive miners. It panics if n < 2.
func Diag(n int) *dataset.Dataset {
	if n < 2 {
		panic("datagen: Diag requires n >= 2")
	}
	txns := make([][]int, n)
	for i := 0; i < n; i++ {
		row := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, j)
			}
		}
		txns[i] = row
	}
	return dataset.MustNew(txns)
}

// DiagPlus builds the motivating example of Section 1: Diag_n plus
// extraRows identical rows each containing the extraWidth fresh items
// {n, …, n+extraWidth−1}. With n = 40, extraRows = 20, extraWidth = 39 this
// is the paper's 60×39 table whose only colossal pattern is
// α = (40 … 78) (the paper's items 41…79) of size 39 and support 20,
// hidden behind C(40,20) mid-sized maximal patterns.
func DiagPlus(n, extraRows, extraWidth int) *dataset.Dataset {
	if n < 2 || extraRows < 1 || extraWidth < 1 {
		panic("datagen: DiagPlus requires n >= 2, extraRows >= 1, extraWidth >= 1")
	}
	base := Diag(n)
	txns := make([][]int, 0, n+extraRows)
	for _, t := range base.Transactions() {
		txns = append(txns, t)
	}
	extra := make([]int, extraWidth)
	for j := range extra {
		extra[j] = n + j
	}
	for i := 0; i < extraRows; i++ {
		txns = append(txns, extra)
	}
	return dataset.MustNew(txns)
}

// DiagColossal returns the single colossal pattern planted by DiagPlus:
// the itemset {n, …, n+extraWidth−1}.
func DiagColossal(n, extraWidth int) []int {
	out := make([]int, extraWidth)
	for j := range out {
		out[j] = n + j
	}
	return out
}

// Random generates numTxns transactions over items [0, numItems), where
// each item is included in each transaction independently with probability
// density. It is the workhorse of the cross-oracle and property tests.
func Random(r *rng.RNG, numTxns, numItems int, density float64) *dataset.Dataset {
	txns := make([][]int, numTxns)
	for i := range txns {
		var t []int
		for item := 0; item < numItems; item++ {
			if r.Float64() < density {
				t = append(t, item)
			}
		}
		txns[i] = t
	}
	return dataset.MustNew(txns)
}

// RandomWithPlanted generates a Random database and then overlays each of
// the planted itemsets onto a fraction `plantRate` of the transactions
// (chosen independently per pattern). Used to test that miners recover
// known patterns from noise.
func RandomWithPlanted(r *rng.RNG, numTxns, numItems int, density float64,
	planted [][]int, plantRate float64) *dataset.Dataset {
	base := Random(r, numTxns, numItems, density)
	txns := make([][]int, numTxns)
	for i, t := range base.Transactions() {
		txns[i] = append([]int(nil), t...)
	}
	for _, p := range planted {
		for i := range txns {
			if r.Float64() < plantRate {
				txns[i] = append(txns[i], p...)
			}
		}
	}
	return dataset.MustNew(txns)
}
