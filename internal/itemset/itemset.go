package itemset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Itemset is a set of items represented as a strictly increasing slice of
// non-negative item IDs. The zero value (nil) is the empty itemset.
//
// All functions in this package assume canonical (sorted, duplicate-free)
// input and preserve canonical form; use Canonical to normalize raw data.
type Itemset []int

// Canonical returns a sorted, duplicate-free copy of raw. The input is not
// modified.
func Canonical(raw []int) Itemset {
	if len(raw) == 0 {
		return nil
	}
	s := make([]int, len(raw))
	copy(s, raw)
	sort.Ints(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return Itemset(out)
}

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Len returns the cardinality |s|.
func (s Itemset) Len() int { return len(s) }

// Contains reports whether item is a member of s (binary search).
func (s Itemset) Contains(item int) bool {
	i := sort.SearchInts(s, item)
	return i < len(s) && s[i] == item
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t (linear merge).
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// ProperSubsetOf reports whether s ⊂ t.
func (s Itemset) ProperSubsetOf(t Itemset) bool {
	return len(s) < len(t) && s.SubsetOf(t)
}

// Union returns s ∪ t as a new canonical itemset.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a new canonical itemset.
func (s Itemset) Intersect(t Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// IntersectLen returns |s ∩ t| without allocating.
func (s Itemset) IntersectLen(t Itemset) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionLen returns |s ∪ t| without allocating.
func (s Itemset) UnionLen(t Itemset) int {
	return len(s) + len(t) - s.IntersectLen(t)
}

// Add returns s ∪ {item} as a new canonical itemset. If item is already a
// member, a copy of s is returned.
func (s Itemset) Add(item int) Itemset {
	i := sort.SearchInts(s, item)
	if i < len(s) && s[i] == item {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, item)
	out = append(out, s[i:]...)
	return out
}

// Remove returns s \ {item} as a new canonical itemset.
func (s Itemset) Remove(item int) Itemset {
	i := sort.SearchInts(s, item)
	if i >= len(s) || s[i] != item {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// EditDistance returns the itemset edit distance of Definition 8:
// Edit(α, β) = |α ∪ β| − |α ∩ β|. It is the symmetric-difference size and a
// metric on itemsets.
func EditDistance(a, b Itemset) int {
	inter := a.IntersectLen(b)
	return len(a) + len(b) - 2*inter
}

// Key returns a canonical string key ("1,5,9") for use in maps. The empty
// itemset yields "".
func (s Itemset) Key() string {
	if len(s) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(len(s) * 3)
	for i, v := range s {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// Fingerprint is a 128-bit FNV-style hash of an itemset's contents, usable
// directly as a comparable map key. It replaces decimal string keys in the
// mining hot paths: computing one walks the itemset once with no allocation,
// whereas Key materializes a fresh string per lookup.
//
// The two halves are independent 64-bit FNV-1a streams over the item IDs
// (eight bytes each, preceded by the length), using different offset bases,
// so two distinct canonical itemsets collide only with probability ~2⁻¹²⁸ —
// negligible against the pool sizes (≤ millions) any miner here produces.
type Fingerprint struct {
	Hi, Lo uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// Second stream: a distinct offset basis (the FNV basis XOR a golden-ratio
	// constant) decorrelates the two halves while sharing the cheap prime.
	fnvOffsetAlt = fnvOffset64 ^ 0x9e3779b97f4a7c15
)

// Fingerprint returns the 128-bit fingerprint of s. Equal itemsets always
// yield equal fingerprints; distinct itemsets collide with negligible
// probability. The empty itemset has a well-defined fingerprint too.
func (s Itemset) Fingerprint() Fingerprint {
	hi := uint64(fnvOffset64)
	lo := uint64(fnvOffsetAlt)
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
		return h
	}
	hi = mix(hi, uint64(len(s)))
	lo = mix(lo, uint64(len(s)))
	for _, it := range s {
		hi = mix(hi, uint64(it))
		lo = mix(lo, uint64(it))
	}
	return Fingerprint{Hi: hi, Lo: lo}
}

// Less orders fingerprints lexicographically on (Hi, Lo); used to sort
// fingerprint slices deterministically.
func (f Fingerprint) Less(g Fingerprint) bool {
	if f.Hi != g.Hi {
		return f.Hi < g.Hi
	}
	return f.Lo < g.Lo
}

// ParseKey parses a key produced by Key back into an itemset.
func ParseKey(key string) (Itemset, error) {
	if key == "" {
		return nil, nil
	}
	parts := strings.Split(key, ",")
	out := make(Itemset, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("itemset: bad key element %q: %w", p, err)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("itemset: key %q is not canonical", key)
		}
		out = append(out, v)
	}
	return out, nil
}

// String renders the itemset as "(1 5 9)".
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte(')')
	return sb.String()
}

// Compare orders itemsets first by length, then lexicographically. It
// returns -1, 0, or +1. Useful for deterministic sorting of result sets.
func Compare(a, b Itemset) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CompareLex orders itemsets purely lexicographically (prefix first).
func CompareLex(a, b Itemset) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SortSet sorts a slice of itemsets by Compare (size, then lexicographic).
func SortSet(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return Compare(sets[i], sets[j]) < 0 })
}

// Subsets enumerates all subsets of s (including the empty set and s
// itself), invoking fn for each. Enumeration order is by binary counter over
// positions. fn must not retain the argument; it is reused across calls.
// Subsets panics if |s| > 30 to avoid runaway enumeration.
func Subsets(s Itemset, fn func(sub Itemset)) {
	if len(s) > 30 {
		panic("itemset: Subsets on itemset larger than 30")
	}
	buf := make(Itemset, 0, len(s))
	for mask := 0; mask < 1<<uint(len(s)); mask++ {
		buf = buf[:0]
		for i := 0; i < len(s); i++ {
			if mask&(1<<uint(i)) != 0 {
				buf = append(buf, s[i])
			}
		}
		fn(buf)
	}
}
