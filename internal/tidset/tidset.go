// Package tidset provides the hybrid compressed TID-set that backs the
// vertical representation of dataset.Dataset and the support sets of
// dataset.Pattern: a fixed-universe set of transaction IDs stored either
// as dense 64-bit words (a classic bitset) or as a sorted uint32
// array, whichever is smaller for the set's cardinality.
//
// The representation rule is the equal-memory cutoff: a set of k elements
// over a universe of n transactions costs 4k bytes sparse and n/8 bytes
// dense, so sparse wins exactly when k ≤ n/32 (SparseThreshold). Column
// tidsets pick their representation at build time from the per-item
// frequencies the two-pass ingest builder already computes (Builder);
// derived sets pick it per operation (an intersection with a sparse
// operand is itself sparse, since |a∩b| ≤ min(|a|,|b|)).
//
// Every kernel — AndOf, AndCount, the early-exit AndCountAtLeast and
// SubsetOf — produces counts, members and verdicts identical to the dense
// bitset computation (pinned by the differential FuzzTIDSet test), so the
// miners' golden sha256 outputs are unchanged by the representation. Each
// kernel dispatches on the pairing: dense∧dense runs word by word,
// sparse∧dense probes the sparse elements into the dense words, and
// sparse∧sparse is a plain sorted merge. DenseCopyFrom lets a caller that
// intersects one set with many sparse partners trade those merges for
// probes, by writing the one set densely once.
// Cardinality is maintained eagerly on every mutation, making Count O(1).
//
// The package also provides the two allocation-discipline helpers the DFS
// miners keep per worker through engine.PerWorker: Pool recycles scratch
// sets for intersection results (the per-node And of every vertical
// miner), and Arena carves long-lived compact copies (the support sets
// retained by emitted patterns) out of shared blocks.
package tidset

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const wordBits = 64

// Set is a fixed-universe set of transaction IDs in [0, N), stored dense
// (64-bit words) or sparse (sorted uint32 array). The zero value is an
// empty set of capacity 0; use New to create one with capacity. A Set is
// not safe for concurrent mutation; the miners treat shared column sets
// as read-only and keep scratch sets worker-local.
type Set struct {
	n     int  // universe capacity
	card  int  // cardinality, maintained eagerly
	dense bool // which payload is active
	words []uint64
	elems []uint32
}

// SparseThreshold returns the cardinality at or below which the sparse
// representation of a set over [0, n) is no larger than the dense one:
// 4k bytes of sorted uint32 versus n/8 bytes of words, i.e. k ≤ n/32.
func SparseThreshold(n int) int { return n / 32 }

// wordsFor returns the dense word count for a universe of n.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty set over [0, n). It starts sparse with no payload
// allocated; kernels writing into it (AndOf, CopyFrom) allocate and then
// retain whatever payload they need, which is what makes pooled scratch
// sets allocation-free in steady state.
func New(n int) *Set {
	if n < 0 || n > math.MaxUint32 {
		panic(fmt.Sprintf("tidset: capacity %d out of range", n))
	}
	return &Set{n: n}
}

// Full returns the dense set {0, …, n−1}.
func Full(n int) *Set {
	s := New(n)
	s.dense = true
	s.words = make([]uint64, wordsFor(n))
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	s.card = n
	return s
}

// FromIndices returns the set of the given indices (any order, duplicates
// tolerated) over [0, n), choosing the representation by SparseThreshold.
func FromIndices(n int, indices []int) *Set {
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	uniq := sorted[:0]
	prev := -1
	for _, i := range sorted {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tidset: index %d out of range [0,%d)", i, n))
		}
		if i != prev {
			uniq = append(uniq, i)
			prev = i
		}
	}
	s := New(n)
	if len(uniq) <= SparseThreshold(n) {
		s.elems = make([]uint32, len(uniq))
		for i, v := range uniq {
			s.elems[i] = uint32(v)
		}
	} else {
		s.dense = true
		s.words = make([]uint64, wordsFor(n))
		for _, v := range uniq {
			s.words[v/wordBits] |= 1 << (uint(v) % wordBits)
		}
	}
	s.card = len(uniq)
	return s
}

// trim zeroes the unused high bits of the last word so popcounts stay
// exact. Only meaningful for dense sets.
func (s *Set) trim() {
	if r := uint(s.n) % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("tidset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// Cap returns the universe capacity (the exclusive upper bound on members).
func (s *Set) Cap() int { return s.n }

// Count returns the number of members. O(1): cardinality is maintained on
// every mutation.
func (s *Set) Count() int { return s.card }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.card == 0 }

// IsDense reports whether the dense (word) representation is active.
func (s *Set) IsDense() bool { return s.dense }

// Test reports whether i is a member. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("tidset: Test(%d) out of range [0,%d)", i, s.n))
	}
	if s.dense {
		return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
	}
	j := sort.Search(len(s.elems), func(k int) bool { return s.elems[k] >= uint32(i) })
	return j < len(s.elems) && s.elems[j] == uint32(i)
}

// Remove deletes i from the set if present, preserving the current
// representation. It panics if i is out of range. Sparse removal shifts
// the tail of the element array; it is a test/utility operation, not a
// mining hot path.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("tidset: Remove(%d) out of range [0,%d)", i, s.n))
	}
	if s.dense {
		w := &s.words[i/wordBits]
		mask := uint64(1) << (uint(i) % wordBits)
		if *w&mask != 0 {
			*w &^= mask
			s.card--
		}
		return
	}
	j := sort.Search(len(s.elems), func(k int) bool { return s.elems[k] >= uint32(i) })
	if j < len(s.elems) && s.elems[j] == uint32(i) {
		s.elems = append(s.elems[:j], s.elems[j+1:]...)
		s.card--
	}
}

// Clone returns an independent copy of s in its current representation.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, card: s.card, dense: s.dense}
	if s.dense {
		c.words = append([]uint64(nil), s.words...)
	} else {
		c.elems = append([]uint32(nil), s.elems...)
	}
	return c
}

// CompactClone returns an independent minimal-footprint copy of s: sparse
// when the cardinality is at or below SparseThreshold, dense otherwise.
// It is what pattern emission uses to detach a retained support set from
// a pooled scratch buffer (see also Arena.CompactClone).
func (s *Set) CompactClone() *Set {
	c := &Set{n: s.n, card: s.card}
	c.fillCompactFrom(s, nil)
	return c
}

// fillCompactFrom writes a compact copy of src into c (whose n and card
// are already set), carving payload from a when non-nil.
func (c *Set) fillCompactFrom(src *Set, a *Arena) {
	if src.card <= SparseThreshold(src.n) {
		c.dense = false
		var buf []uint32
		if a != nil {
			buf = a.elemBuf(src.card)[:0]
		} else {
			buf = make([]uint32, 0, src.card)
		}
		if src.dense {
			for wi, w := range src.words {
				base := wi * wordBits
				for w != 0 {
					buf = append(buf, uint32(base+bits.TrailingZeros64(w)))
					w &= w - 1
				}
			}
		} else {
			buf = append(buf, src.elems...)
		}
		c.elems = buf
		return
	}
	c.dense = true
	nw := wordsFor(src.n)
	var buf []uint64
	if a != nil {
		buf = a.wordBuf(nw)
	} else {
		buf = make([]uint64, nw)
	}
	src.writeWords(buf)
	c.words = buf
}

// writeWords writes the members of s into w, a word buffer sized for s's
// universe, overwriting every word.
func (s *Set) writeWords(w []uint64) {
	if s.dense {
		copy(w, s.words)
		return
	}
	clear(w)
	for _, e := range s.elems {
		w[e/wordBits] |= 1 << (uint(e) % wordBits)
	}
}

// ExtendClone returns an independent copy of s over the grown universe
// [0, n) with the strictly increasing TIDs in added — each in
// [s.Cap(), n) — appended as new members. The result's representation is
// re-chosen by SparseThreshold(n) exactly as a fresh Builder column over
// the full row range would pick it; a column that was dense over the old
// universe may come back sparse because the threshold grows with n. This
// is the appendable-column primitive behind ingest.Appender: extending
// every column with its new rows yields sets byte-identical to a
// from-scratch re-ingest of the concatenated data. s is not modified.
func (s *Set) ExtendClone(n int, added []uint32) *Set {
	if n < s.n || n > math.MaxUint32 {
		panic(fmt.Sprintf("tidset: ExtendClone capacity %d out of range (current %d)", n, s.n))
	}
	prev := s.n - 1
	for _, e := range added {
		if int(e) < s.n || int(e) >= n || int(e) <= prev {
			panic(fmt.Sprintf("tidset: ExtendClone TID %d not strictly increasing in [%d,%d)", e, s.n, n))
		}
		prev = int(e)
	}
	out := New(n)
	out.card = s.card + len(added)
	if out.card <= SparseThreshold(n) {
		buf := make([]uint32, 0, out.card)
		if s.dense {
			for wi, w := range s.words {
				base := wi * wordBits
				for w != 0 {
					buf = append(buf, uint32(base+bits.TrailingZeros64(w)))
					w &= w - 1
				}
			}
		} else {
			buf = append(buf, s.elems...)
		}
		out.elems = append(buf, added...)
		return out
	}
	out.dense = true
	out.words = make([]uint64, wordsFor(n))
	if s.dense {
		copy(out.words, s.words)
	} else {
		for _, e := range s.elems {
			out.words[e/wordBits] |= 1 << (uint(e) % wordBits)
		}
	}
	for _, e := range added {
		out.words[e/wordBits] |= 1 << (uint(e) % wordBits)
	}
	return out
}

// CopyFrom overwrites s with the contents and representation of src. The
// capacities must match. Both payload arrays of s are retained across
// calls, so a pooled scratch set flips representation without allocating.
func (s *Set) CopyFrom(src *Set) {
	s.mustMatch(src)
	s.card = src.card
	if src.dense {
		w := s.grabWords()
		copy(w, src.words)
		s.dense = true
	} else {
		s.elems = append(s.elems[:0], src.elems...)
		s.dense = false
	}
}

// DenseCopyFrom overwrites s with the members of src in dense form,
// whatever src's representation. The capacities must match. Words left
// over from an earlier copy are cleared, and the word payload is retained
// across calls. It is the one-to-many intersection primitive: a set tested
// against many sparse partners is written densely once, so each partner
// runs the sparse∧dense probe — one word load per element — instead of a
// sorted merge whose branches mispredict on almost every step.
func (s *Set) DenseCopyFrom(src *Set) {
	s.mustMatch(src)
	src.writeWords(s.grabWords())
	s.dense = true
	s.card = src.card
}

// grabWords returns s's word payload resized to the universe, reusing the
// backing array when capacity allows. Contents are unspecified; callers
// overwrite every word.
func (s *Set) grabWords() []uint64 {
	nw := wordsFor(s.n)
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	}
	s.words = s.words[:nw]
	return s.words
}

// AndOf sets dst = a ∩ b. All three must share a universe; dst may alias
// a or b (the sparse writers never pass their readers). The result is
// dense only when both operands are dense — an intersection with a sparse
// operand has at most that operand's cardinality, so it stays sparse.
// This is the one allocation-free intersection kernel every miner's
// extend/intersect loop runs on pooled scratch sets.
func (dst *Set) AndOf(a, b *Set) {
	a.mustMatch(b)
	dst.mustMatch(a)
	switch {
	case a.dense && b.dense:
		aw, bw := a.words, b.words
		w := dst.grabWords()
		card := 0
		for i := range w {
			v := aw[i] & bw[i]
			w[i] = v
			card += bits.OnesCount64(v)
		}
		dst.dense = true
		dst.card = card
	case a.dense: // b sparse
		dst.intersectSparseDense(b.elems, a.words)
	case b.dense: // a sparse
		dst.intersectSparseDense(a.elems, b.words)
	default:
		dst.intersectSparseSparse(a.elems, b.elems)
	}
}

// intersectSparseDense writes {e ∈ elems : words has e} into dst. Safe
// when dst's payload aliases elems: the write index never passes the read
// index.
func (dst *Set) intersectSparseDense(elems []uint32, words []uint64) {
	out := dst.elems[:0]
	for _, e := range elems {
		if words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0 {
			out = append(out, e)
		}
	}
	dst.elems = out
	dst.dense = false
	dst.card = len(out)
}

// intersectSparseSparse writes the sorted-merge intersection of ae and be
// into dst. Safe when dst's payload aliases either input, by the same
// write-index argument.
func (dst *Set) intersectSparseSparse(ae, be []uint32) {
	out := dst.elems[:0]
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i] < be[j]:
			i++
		case ae[i] > be[j]:
			j++
		default:
			out = append(out, ae[i])
			i++
			j++
		}
	}
	dst.elems = out
	dst.dense = false
	dst.card = len(out)
}

// InPlaceAnd sets s = s ∩ o.
func (s *Set) InPlaceAnd(o *Set) { s.AndOf(s, o) }

// And returns a new set s ∩ o.
func (s *Set) And(o *Set) *Set {
	out := New(s.n)
	out.AndOf(s, o)
	return out
}

// AndCount returns |s ∩ o| without allocating.
func (s *Set) AndCount(o *Set) int {
	s.mustMatch(o)
	switch {
	case s.dense && o.dense:
		c := 0
		for i, w := range s.words {
			c += bits.OnesCount64(w & o.words[i])
		}
		return c
	case s.dense:
		return countSparseDense(o.elems, s.words)
	case o.dense:
		return countSparseDense(s.elems, o.words)
	default:
		return countSparseSparse(s.elems, o.elems)
	}
}

func countSparseDense(elems []uint32, words []uint64) int {
	c := 0
	for _, e := range elems {
		if words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0 {
			c++
		}
	}
	return c
}

func countSparseSparse(ae, be []uint32) int {
	c, i, j := 0, 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i] < be[j]:
			i++
		case ae[i] > be[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// AndCountAtLeast reports whether |s ∩ o| >= threshold with two-sided
// early exit: the scan stops as soon as the accumulated count reaches the
// threshold (true) or as soon as even a perfect remainder could no longer
// reach it (false). It is the primitive behind the fusion engine's
// count-algebra ball pruning; the sparse paths bound the remainder by the
// elements left to scan, which is far tighter than the dense word bound.
func (s *Set) AndCountAtLeast(o *Set, threshold int) bool {
	s.mustMatch(o)
	if threshold <= 0 {
		return true
	}
	switch {
	case s.dense && o.dense:
		c := 0
		remaining := len(s.words) * wordBits
		for i, w := range s.words {
			c += bits.OnesCount64(w & o.words[i])
			if c >= threshold {
				return true
			}
			remaining -= wordBits
			if c+remaining < threshold {
				return false
			}
		}
		return c >= threshold
	case s.dense:
		return atLeastSparseDense(o.elems, s.words, threshold)
	case o.dense:
		return atLeastSparseDense(s.elems, o.words, threshold)
	default:
		return atLeastSparseSparse(s.elems, o.elems, threshold)
	}
}

func atLeastSparseDense(elems []uint32, words []uint64, threshold int) bool {
	c := 0
	for i, e := range elems {
		if words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0 {
			c++
			if c >= threshold {
				return true
			}
		}
		if c+len(elems)-i-1 < threshold {
			return false
		}
	}
	return c >= threshold
}

func atLeastSparseSparse(ae, be []uint32, threshold int) bool {
	c, i, j := 0, 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i] < be[j]:
			i++
		case ae[i] > be[j]:
			j++
		default:
			c++
			if c >= threshold {
				return true
			}
			i++
			j++
		}
		remaining := len(ae) - i
		if r := len(be) - j; r < remaining {
			remaining = r
		}
		if c+remaining < threshold {
			return false
		}
	}
	return c >= threshold
}

// SubsetOf reports whether every member of s is a member of o, with early
// exit on the first member o lacks. A larger s is rejected from the
// maintained cardinalities alone; dense∧dense stops at the first word
// with a bit outside o, a sparse s probes o's words per element or merges
// with a sparse o, and a dense s is checked by counting the sparse o's
// elements it holds. It is the column-containment test behind
// dataset.Closer: an item belongs to the closure of a support set iff the
// set is a subset of the item's column.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	if s.card > o.card {
		return false
	}
	switch {
	case s.dense && o.dense:
		for i, w := range s.words {
			if w&^o.words[i] != 0 {
				return false
			}
		}
		return true
	case o.dense: // s sparse
		for _, e := range s.elems {
			if o.words[e/wordBits]&(1<<(uint(e)%wordBits)) == 0 {
				return false
			}
		}
		return true
	case s.dense: // o sparse, and s no larger: probe o's few elements
		return countSparseDense(o.elems, s.words) == s.card
	default:
		j := 0
		for _, e := range s.elems {
			for j < len(o.elems) && o.elems[j] < e {
				j++
			}
			if j == len(o.elems) || o.elems[j] != e {
				return false
			}
			j++
		}
		return true
	}
}

// Jaccard returns the Jaccard similarity |s∩o| / |s∪o|. By convention
// Jaccard of two empty sets is 1. The division is performed on the same
// integer counts the dense bitset computes, so the float64 result is
// bit-identical to bitset.Jaccard.
func (s *Set) Jaccard(o *Set) float64 {
	inter := s.AndCount(o)
	union := s.card + o.card - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Distance returns the pattern distance of the paper's Definition 6
// applied to two support sets: Dist = 1 − |s∩o| / |s∪o|.
func (s *Set) Distance(o *Set) float64 { return 1 - s.Jaccard(o) }

// Equal reports whether s and o have identical members and capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || s.card != o.card {
		return false
	}
	return s.AndCount(o) == s.card
}

// Hash returns a hash of the members and capacity of s that does not
// depend on the representation: the dense words and the sparse elements
// folded into words are both read as the sequence of nonzero (word index,
// word) pairs. Equal sets therefore hash equal; unequal sets may collide,
// so a caller grouping sets by Hash confirms each match with Equal.
func (s *Set) Hash() uint64 {
	h := mixWord(0, s.n, 0)
	if s.dense {
		for wi, w := range s.words {
			if w != 0 {
				h = mixWord(h, wi, w)
			}
		}
		return h
	}
	wi, w := -1, uint64(0)
	for _, e := range s.elems {
		if i := int(e / wordBits); i != wi {
			if w != 0 {
				h = mixWord(h, wi, w)
			}
			wi, w = i, 0
		}
		w |= 1 << (e % wordBits)
	}
	if w != 0 {
		h = mixWord(h, wi, w)
	}
	return h
}

// mixWord folds the pair (wi, w) into the running hash h.
func mixWord(h uint64, wi int, w uint64) uint64 {
	h = (h ^ uint64(wi)) * 0x9e3779b97f4a7c15
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// NextSet returns the smallest member >= i, or -1 if none exists.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	if !s.dense {
		j := sort.Search(len(s.elems), func(k int) bool { return s.elems[k] >= uint32(i) })
		if j < len(s.elems) {
			return int(s.elems[j])
		}
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every member in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	if !s.dense {
		for _, e := range s.elems {
			fn(int(e))
		}
		return
	}
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Indices returns the members in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.card)
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{i1, i2, ...}" for debugging.
func (s *Set) String() string {
	out := "{"
	first := true
	s.ForEach(func(i int) {
		if !first {
			out += ", "
		}
		first = false
		out += fmt.Sprint(i)
	})
	return out + "}"
}
