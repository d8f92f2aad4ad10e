// Package dataset implements the transaction database abstraction of the
// paper (Section 2.1): a collection D = {t1, …, tn} of itemsets over an item
// universe I, with both a horizontal representation (the transactions
// themselves) and a vertical representation (a TID-set per item) that the
// vertical miners and Pattern-Fusion operate on.
//
// The central derived object is the Pattern: an itemset α together with its
// support set Dα (the set of transactions containing α) kept as a hybrid
// compressed TID-set (internal/tidset: dense words for high-frequency
// columns, sorted arrays for sparse ones, chosen per column at build time),
// so that s(α), Dist(α,β) (Definition 6) and support-set intersections
// during fusion are all cheap. Patterns built through the constructors
// memoize |Dα|, so the sort comparators and frequency checks sprinkled over
// every miner read a cached integer instead of recounting the TID-set.
//
// The package also provides Closer, the closure computer of the closed
// miners and the fusion engine's per-worker scratch state. It answers
// closure membership from the vertical columns: an item of the first
// supporting transaction belongs to the closure iff the support set is a
// subset of the item's column. Dataset.Closure, the Intersect chain over
// the supporting rows, stays as the naive reference it is tested against.
package dataset

import (
	"fmt"
	"sort"

	"repro/internal/itemset"
	"repro/internal/tidset"
)

// Dataset is an immutable transaction database. Build one with New or Load;
// do not mutate the returned structures.
type Dataset struct {
	transactions []itemset.Itemset // horizontal form, canonical itemsets
	tidsets      []*tidset.Set     // vertical form: tidsets[item] = D_{item}
	numItems     int               // item universe size (max item ID + 1)
	seqs         [][]int           // optional ordered view; see SetSequences
}

// New builds a Dataset from raw transactions. Each transaction is
// canonicalized (sorted, deduplicated). Item IDs must be non-negative.
// Empty transactions are kept: they count toward |D| but support no item.
func New(transactions [][]int) (*Dataset, error) {
	d := &Dataset{transactions: make([]itemset.Itemset, len(transactions))}
	maxItem := -1
	for i, t := range transactions {
		for _, it := range t {
			if it < 0 {
				return nil, fmt.Errorf("dataset: transaction %d has negative item %d", i, it)
			}
			if it > maxItem {
				maxItem = it
			}
		}
		d.transactions[i] = itemset.Canonical(t)
	}
	d.numItems = maxItem + 1
	d.buildVertical()
	return d, nil
}

// MustNew is New but panics on error; for tests and generators whose input
// is valid by construction.
func MustNew(transactions [][]int) *Dataset {
	d, err := New(transactions)
	if err != nil {
		panic(err)
	}
	return d
}

// FromParts assembles a Dataset from already-canonical transactions and
// a prebuilt vertical representation, without re-validating either — the
// constructor for streaming builders (internal/ingest) that emit both
// forms in one pass. The caller contract: every transactions[i] is
// canonical (strictly increasing), every tidsets[j] has capacity
// len(transactions), and tidsets[j].Test(i) holds iff transactions[i]
// contains j. The item universe is len(tidsets).
func FromParts(transactions []itemset.Itemset, tidsets []*tidset.Set) *Dataset {
	return &Dataset{transactions: transactions, tidsets: tidsets, numItems: len(tidsets)}
}

func (d *Dataset) buildVertical() {
	n := len(d.transactions)
	// Two passes over the horizontal form: frequencies first, so every
	// column's representation (dense words vs sorted array) is chosen and
	// exact-sized before a single TID is stored.
	freq := make([]int, d.numItems)
	for _, t := range d.transactions {
		for _, item := range t {
			freq[item]++
		}
	}
	b := tidset.NewBuilder(n, freq)
	for tid, t := range d.transactions {
		for _, item := range t {
			b.Add(item, tid)
		}
	}
	d.tidsets = b.Sets()
}

// Size returns the number of transactions |D|.
func (d *Dataset) Size() int { return len(d.transactions) }

// NumItems returns the size of the item universe (max item ID + 1).
func (d *Dataset) NumItems() int { return d.numItems }

// Transaction returns the canonical itemset of transaction tid.
func (d *Dataset) Transaction(tid int) itemset.Itemset { return d.transactions[tid] }

// Transactions returns the underlying transaction slice (do not modify).
func (d *Dataset) Transactions() []itemset.Itemset { return d.transactions }

// ItemTIDs returns the tidset of a single item (do not modify). Items that
// never occur have an empty tidset; out-of-universe items return nil.
func (d *Dataset) ItemTIDs(item int) *tidset.Set {
	if item < 0 || item >= d.numItems {
		return nil
	}
	return d.tidsets[item]
}

// TIDSet computes D_α: the set of transactions containing every item of α,
// by intersecting the per-item tidsets (Lemma 1: D_α = ∩_{o∈α} D_o).
// The empty itemset is contained in every transaction.
func (d *Dataset) TIDSet(alpha itemset.Itemset) *tidset.Set {
	if len(alpha) == 0 {
		return tidset.Full(len(d.transactions))
	}
	first := alpha[0]
	if first >= d.numItems {
		return tidset.New(len(d.transactions)) // item never occurs: empty support
	}
	out := d.tidsets[first].Clone()
	for _, item := range alpha[1:] {
		if item >= d.numItems {
			return tidset.New(len(d.transactions))
		}
		out.InPlaceAnd(d.tidsets[item])
		if out.Empty() {
			return out
		}
	}
	return out
}

// SupportCount returns |D_α|.
func (d *Dataset) SupportCount(alpha itemset.Itemset) int {
	return d.TIDSet(alpha).Count()
}

// Support returns the relative support s(α) = |D_α| / |D|.
func (d *Dataset) Support(alpha itemset.Itemset) float64 {
	if len(d.transactions) == 0 {
		return 0
	}
	return float64(d.SupportCount(alpha)) / float64(len(d.transactions))
}

// MinCount converts a relative minimum support threshold σ ∈ [0,1] into an
// absolute transaction count, rounding up (a pattern is frequent iff
// |D_α|/|D| ≥ σ, i.e. |D_α| ≥ ⌈σ|D|⌉). A threshold of 0 yields 1 so that
// "frequent" always means "occurs at least once".
func (d *Dataset) MinCount(sigma float64) int {
	if sigma <= 0 {
		return 1
	}
	n := float64(len(d.transactions))
	c := int(sigma * n)
	if float64(c) < sigma*n {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Closure returns the closure of α: the maximal itemset with the same
// support set, i.e. the intersection of all transactions in D_α. For an α
// with empty support the closure is α itself.
func (d *Dataset) Closure(alpha itemset.Itemset) itemset.Itemset {
	tids := d.TIDSet(alpha)
	first := tids.NextSet(0)
	if first < 0 {
		return alpha.Clone()
	}
	closed := d.transactions[first].Clone()
	for tid := tids.NextSet(first + 1); tid >= 0 && len(closed) > 0; tid = tids.NextSet(tid + 1) {
		closed = closed.Intersect(d.transactions[tid])
	}
	return closed
}

// Closer computes transaction-set closures vertically, with a reusable
// output buffer: the candidates are the items of the first supporting
// transaction, and an item is kept iff the support set is a subset of the
// item's column (tidset.SubsetOf). That costs |first transaction| column
// tests of at most |D|/64 words each, with early exit on the first
// uncovered transaction, instead of a rescan of every supporting row like
// Closure. One Closer serves many closure calls with zero allocation in
// steady state; it is not safe for concurrent use (the fusion engine keeps
// one per worker).
type Closer struct {
	d   *Dataset
	buf itemset.Itemset
}

// NewCloser returns a Closer for d.
func NewCloser(d *Dataset) *Closer { return &Closer{d: d} }

// Closure returns the closure of the support set tids: the intersection of
// its transactions, identical to Dataset.Closure on a non-empty tids (the
// same items, in the same order, drawn from the same first transaction).
// The returned itemset is a reusable internal buffer — callers must clone
// it before retaining it or calling Closure again. An empty tids yields
// nil.
func (c *Closer) Closure(tids *tidset.Set) itemset.Itemset {
	first := tids.NextSet(0)
	if first < 0 {
		return nil
	}
	out := c.buf[:0]
	for _, it := range c.d.transactions[first] {
		if tids.SubsetOf(c.d.tidsets[it]) {
			out = append(out, it)
		}
	}
	c.buf = out
	return out
}

// SetSequences attaches an order-preserving view of the rows: rows[i] is
// transaction i's events in source order, repeats kept. It is set by the
// builders of sequence data (the ingest "seq" format, the sequence test
// fixtures) immediately after construction — the one mutation the
// otherwise-immutable Dataset allows — and read by the sequence miner.
// The caller contract: len(rows) == Size(), and the distinct events of
// rows[i] equal Transaction(i), so the itemset view (supports, TID-sets,
// transforms) stays consistent with the ordered one — the sequence miner
// reads event e's support set from item column e. Both are checked, in
// one pass over the rows; a violation is a builder bug and panics.
func (d *Dataset) SetSequences(rows [][]int) {
	if rows != nil && len(rows) != len(d.transactions) {
		panic(fmt.Sprintf("dataset: %d sequence rows for %d transactions", len(rows), len(d.transactions)))
	}
	// mark[e] is 2i+1 while item e of transaction i is unseen in rows[i],
	// and 2i+2 once seen.
	var mark []int
	if len(rows) > 0 {
		mark = make([]int, d.numItems)
	}
	for i, row := range rows {
		txn := d.transactions[i]
		for _, e := range txn {
			mark[e] = 2*i + 1
		}
		seen := 0
		for _, e := range row {
			if e < 0 || e >= d.numItems || mark[e] < 2*i+1 {
				panic(fmt.Sprintf("dataset: sequence row %d has event %d outside transaction %v", i, e, txn))
			}
			if mark[e] == 2*i+1 {
				mark[e]++
				seen++
			}
		}
		if seen != len(txn) {
			panic(fmt.Sprintf("dataset: sequence row %d covers %d of the %d items of transaction %v", i, seen, len(txn), txn))
		}
	}
	d.seqs = rows
}

// Sequences returns the ordered row view attached by SetSequences, or nil
// when the dataset carries none (itemset-format ingestions, generators).
// Callers must not modify the returned rows. Miners that need an ordered
// view of a sequence-less dataset fall back to the canonical transactions.
func (d *Dataset) Sequences() [][]int { return d.seqs }

// ItemFrequencies returns, for every item in the universe, its support
// count.
func (d *Dataset) ItemFrequencies() []int {
	freq := make([]int, d.numItems)
	for item, tids := range d.tidsets {
		freq[item] = tids.Count()
	}
	return freq
}

// FrequentItems returns the items with support count >= minCount, in
// increasing item order.
func (d *Dataset) FrequentItems(minCount int) []int {
	var out []int
	for item, tids := range d.tidsets {
		if tids.Count() >= minCount {
			out = append(out, item)
		}
	}
	return out
}

// Stats summarizes a dataset; used by the CLI tools.
type Stats struct {
	Transactions   int
	DistinctItems  int // items that occur at least once
	UniverseSize   int // max item ID + 1
	MinTxnLen      int
	MaxTxnLen      int
	AvgTxnLen      float64
	TotalItemOccur int
}

// ComputeStats returns summary statistics for the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{Transactions: len(d.transactions), UniverseSize: d.numItems}
	if len(d.transactions) == 0 {
		return s
	}
	s.MinTxnLen = len(d.transactions[0])
	for _, t := range d.transactions {
		l := len(t)
		s.TotalItemOccur += l
		if l < s.MinTxnLen {
			s.MinTxnLen = l
		}
		if l > s.MaxTxnLen {
			s.MaxTxnLen = l
		}
	}
	s.AvgTxnLen = float64(s.TotalItemOccur) / float64(len(d.transactions))
	for _, tids := range d.tidsets {
		if !tids.Empty() {
			s.DistinctItems++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("transactions=%d distinct_items=%d universe=%d txn_len[min/avg/max]=%d/%.1f/%d",
		s.Transactions, s.DistinctItems, s.UniverseSize, s.MinTxnLen, s.AvgTxnLen, s.MaxTxnLen)
}

// Pattern is a frequent itemset paired with its support set, the unit of
// work for Pattern-Fusion and the closed/maximal miners.
//
// The support count |D_α| is memoized: constructors compute it once, and
// Support serves it without recounting the TID-set — sort comparators, the
// fusion core-ratio checks and the ball search all read supports, so
// recounting dominated the hot path before the cache. Code that builds a
// Pattern by struct literal still works (Support falls back to counting,
// without caching, so shared patterns stay race-free), but the mining paths
// should use NewPattern / NewPatternCounted / NewPatternTIDs.
type Pattern struct {
	Items itemset.Itemset
	TIDs  *tidset.Set // D_α; never nil for patterns built via NewPattern
	sup   int         // cached |D_α|+1; 0 means not computed
}

// NewPattern builds a Pattern for α against d, computing its support set.
func NewPattern(d *Dataset, alpha itemset.Itemset) *Pattern {
	tids := d.TIDSet(alpha)
	return &Pattern{Items: alpha, TIDs: tids, sup: tids.Count() + 1}
}

// NewPatternTIDs builds a Pattern from an already-computed support set,
// counting it once.
func NewPatternTIDs(alpha itemset.Itemset, tids *tidset.Set) *Pattern {
	return &Pattern{Items: alpha, TIDs: tids, sup: tids.Count() + 1}
}

// NewPatternCounted builds a Pattern from an already-computed support set
// whose cardinality the caller already knows (count must equal
// tids.Count(); the miners always have it in hand from a frequency test).
func NewPatternCounted(alpha itemset.Itemset, tids *tidset.Set, count int) *Pattern {
	return &Pattern{Items: alpha, TIDs: tids, sup: count + 1}
}

// Support returns |D_α|. Patterns built via the constructors serve the
// memoized count; struct-literal patterns fall back to counting the TID-set
// on every call (no caching, so concurrent readers never race).
func (p *Pattern) Support() int {
	if p.sup > 0 {
		return p.sup - 1
	}
	return p.TIDs.Count()
}

// EnsureSupport memoizes the support count if it is not already cached.
// Not safe to call concurrently on a shared pattern; the miners call it
// while pools are still single-threaded.
func (p *Pattern) EnsureSupport() {
	if p.sup == 0 {
		p.sup = p.TIDs.Count() + 1
	}
}

// Size returns |α|.
func (p *Pattern) Size() int { return len(p.Items) }

// Distance returns the pattern distance of Definition 6 between p and q:
// 1 − |Dp∩Dq| / |Dp∪Dq|.
func (p *Pattern) Distance(q *Pattern) float64 {
	return p.TIDs.Distance(q.TIDs)
}

// String renders the pattern as "(items):support".
func (p *Pattern) String() string {
	return fmt.Sprintf("%v:%d", p.Items, p.Support())
}

// SortPatterns orders patterns by ComparePatterns — the presentation order
// used in the experiment reports.
func SortPatterns(ps []*Pattern) {
	sort.Slice(ps, func(i, j int) bool { return ComparePatterns(ps[i], ps[j]) < 0 })
}

// ComparePatterns orders p before q (< 0) by decreasing size, then
// decreasing support, then lexicographically. The order is total on
// patterns of distinct itemsets.
func ComparePatterns(p, q *Pattern) int {
	if len(p.Items) != len(q.Items) {
		return len(q.Items) - len(p.Items)
	}
	if sp, sq := p.Support(), q.Support(); sp != sq {
		return sq - sp
	}
	return itemset.CompareLex(p.Items, q.Items)
}

// DedupPatterns removes patterns with duplicate itemsets, keeping the first
// occurrence. Order of survivors is preserved. Duplicates are detected by
// 128-bit itemset fingerprint (see itemset.Fingerprint), not by string key,
// so deduplication allocates only the map.
func DedupPatterns(ps []*Pattern) []*Pattern {
	seen := make(map[itemset.Fingerprint]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		f := p.Items.Fingerprint()
		if !seen[f] {
			seen[f] = true
			out = append(out, p)
		}
	}
	return out
}

// Itemsets projects a pattern slice to its itemsets.
func Itemsets(ps []*Pattern) []itemset.Itemset {
	out := make([]itemset.Itemset, len(ps))
	for i, p := range ps {
		out[i] = p.Items
	}
	return out
}
