package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-capacity set of integers in [0, N). The zero value is
// an empty set of capacity 0; use New to create one with capacity.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty bitset with capacity for integers in [0, n).
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a bitset of capacity n with the given indices set.
func FromIndices(n int, indices []int) *Bitset {
	b := New(n)
	for _, i := range indices {
		b.Set(i)
	}
	return b
}

// Set adds i to the set. It panics if i is out of range.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear removes i from the set. It panics if i is out of range.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Clear(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether i is a member. It panics if i is out of range.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Test(%d) out of range [0,%d)", i, b.n))
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members (the cardinality |D|).
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// SetAll sets every bit in [0, n).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so Count stays exact.
func (b *Bitset) trim() {
	if r := uint(b.n) % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

func (b *Bitset) mustMatch(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", b.n, o.n))
	}
}

// InPlaceAnd sets b = b ∩ o.
func (b *Bitset) InPlaceAnd(o *Bitset) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// AndOf sets b = a ∩ o without allocating. All three capacities must
// match; b may alias a or o. It is the scratch-buffer form of And for
// recursion that reuses per-depth result bitsets.
func (b *Bitset) AndOf(a, o *Bitset) {
	b.mustMatch(a)
	a.mustMatch(o)
	for i := range b.words {
		b.words[i] = a.words[i] & o.words[i]
	}
}

// And returns a new bitset b ∩ o.
func (b *Bitset) And(o *Bitset) *Bitset {
	c := b.Clone()
	c.InPlaceAnd(o)
	return c
}

// AndCount returns |b ∩ o| without allocating.
func (b *Bitset) AndCount(o *Bitset) int {
	b.mustMatch(o)
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// AndCountAtLeast reports whether |b ∩ o| >= threshold without necessarily
// scanning every word: the loop bails out as soon as the accumulated count
// reaches threshold (answer is true) or as soon as even all-ones remaining
// words could no longer reach it (answer is false). It is the primitive
// behind the ball search's count-algebra pruning: Dist(α,β) ≤ r is
// equivalent to an intersection-count lower bound, so most candidate pairs
// are decided after a fraction of the word loop.
func (b *Bitset) AndCountAtLeast(o *Bitset, threshold int) bool {
	b.mustMatch(o)
	if threshold <= 0 {
		return true
	}
	c := 0
	remaining := len(b.words) * wordBits
	for i, w := range b.words {
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
}

// AndNotAny reports whether b \ o is non-empty, i.e. whether b ⊄ o.
func (b *Bitset) AndNotAny(o *Bitset) bool {
	b.mustMatch(o)
	for i, w := range b.words {
		if w&^o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether b ⊆ o.
func (b *Bitset) SubsetOf(o *Bitset) bool {
	return !b.AndNotAny(o)
}

// Jaccard returns the Jaccard similarity |b∩o| / |b∪o|.
// By convention Jaccard of two empty sets is 1.
func (b *Bitset) Jaccard(o *Bitset) float64 {
	b.mustMatch(o)
	inter, union := 0, 0
	for i, w := range b.words {
		inter += bits.OnesCount64(w & o.words[i])
		union += bits.OnesCount64(w | o.words[i])
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Distance returns the pattern distance of Definition 6 applied to two
// support sets: Dist = 1 − |b∩o| / |b∪o|. Two empty sets have distance 0.
func (b *Bitset) Distance(o *Bitset) float64 {
	return 1 - b.Jaccard(o)
}

// Indices returns the members in increasing order.
func (b *Bitset) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for every member in increasing order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(base + t)
			w &= w - 1
		}
	}
}

// NextSet returns the smallest member >= i, or -1 if none exists.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}
