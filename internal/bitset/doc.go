// Package bitset implements dense fixed-capacity bitsets over item IDs.
//
// Row-space sets — the support set D_α of a pattern α (Definition 1 of
// the paper), the dataset's vertical columns, and every intersection the
// fusion engines compute — are internal/tidset sets. This package serves
// the item-space side: CARPENTER's row-enumeration itemsets (the
// intersection X of the rows chosen so far) and the maximal miner's
// subsumption probes, where the universe is the item count and a dense
// word array is always the right representation. It is also the plain
// reference implementation that internal/tidset's differential tests
// compare every hybrid kernel against.
//
// Besides the set algebra (And, AndOf, SubsetOf) the package offers
// allocation-free counting forms (AndCount, Jaccard) and the
// early-exit decision form AndCountAtLeast, which answers
// |b∩o| ≥ threshold without necessarily finishing the word loop.
//
// A Bitset is not synchronized: concurrent readers are safe, but any
// mutation needs external coordination.
package bitset
