package itemset

import (
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	cases := []struct {
		in   []int
		want Itemset
	}{
		{nil, nil},
		{[]int{}, nil},
		{[]int{3, 1, 2}, Itemset{1, 2, 3}},
		{[]int{5, 5, 5}, Itemset{5}},
		{[]int{2, 1, 2, 1}, Itemset{1, 2}},
		{[]int{7}, Itemset{7}},
	}
	for _, c := range cases {
		got := Canonical(c.in)
		if !got.Equal(c.want) {
			t.Errorf("Canonical(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCanonicalDoesNotMutateInput(t *testing.T) {
	in := []int{3, 1, 2}
	Canonical(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestContains(t *testing.T) {
	s := Itemset{1, 4, 9}
	for _, v := range s {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range []int{0, 2, 10} {
		if s.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	if Itemset(nil).Contains(1) {
		t.Error("empty set contains 1")
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want bool
	}{
		{nil, nil, true},
		{nil, Itemset{1}, true},
		{Itemset{1}, nil, false},
		{Itemset{1, 3}, Itemset{1, 2, 3}, true},
		{Itemset{1, 4}, Itemset{1, 2, 3}, false},
		{Itemset{1, 2, 3}, Itemset{1, 2, 3}, true},
		{Itemset{0}, Itemset{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v ⊆ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	one := Itemset{1}
	if !Itemset(nil).ProperSubsetOf(one) || one.ProperSubsetOf(one) {
		t.Error("ProperSubsetOf wrong")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := Itemset{1, 3, 5}
	b := Itemset{2, 3, 6}
	if got := a.Union(b); !got.Equal(Itemset{1, 2, 3, 5, 6}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(Itemset{3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(nil); !got.Equal(a) {
		t.Errorf("Union nil = %v", got)
	}
	if got := a.Intersect(nil); got != nil {
		t.Errorf("Intersect nil = %v", got)
	}
}

func TestAddRemove(t *testing.T) {
	s := Itemset{2, 4}
	if got := s.Add(3); !got.Equal(Itemset{2, 3, 4}) {
		t.Errorf("Add(3) = %v", got)
	}
	if got := s.Add(1); !got.Equal(Itemset{1, 2, 4}) {
		t.Errorf("Add(1) = %v", got)
	}
	if got := s.Add(5); !got.Equal(Itemset{2, 4, 5}) {
		t.Errorf("Add(5) = %v", got)
	}
	if got := s.Add(2); !got.Equal(s) {
		t.Errorf("Add(existing) = %v", got)
	}
	if got := s.Remove(2); !got.Equal(Itemset{4}) {
		t.Errorf("Remove(2) = %v", got)
	}
	if got := s.Remove(9); !got.Equal(s) {
		t.Errorf("Remove(absent) = %v", got)
	}
	// Add must not alias the receiver.
	x := Itemset{1, 2, 3}
	y := x.Add(4)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Add aliased receiver memory")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{Itemset{1, 2, 3, 4}, Itemset{1, 3, 4, 5}, 2}, // paper: (abcd) vs (acde)
		{nil, nil, 0},
		{Itemset{1}, nil, 1},
		{Itemset{1, 2}, Itemset{1, 2}, 0},
		{Itemset{1, 2}, Itemset{3, 4}, 4},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("Edit(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, s := range []Itemset{nil, {0}, {1, 5, 9}, {10, 20, 30, 40}} {
		got, err := ParseKey(s.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", s.Key(), err)
		}
		if !got.Equal(s) {
			t.Errorf("round trip %v -> %q -> %v", s, s.Key(), got)
		}
	}
	if _, err := ParseKey("2,1"); err == nil {
		t.Error("non-canonical key accepted")
	}
	if _, err := ParseKey("a,b"); err == nil {
		t.Error("garbage key accepted")
	}
}

func TestCompare(t *testing.T) {
	if Compare(Itemset{1, 2}, Itemset{9}) <= 0 {
		t.Error("size ordering violated")
	}
	if Compare(Itemset{1, 2}, Itemset{1, 3}) >= 0 {
		t.Error("lexicographic ordering violated")
	}
	if Compare(Itemset{1, 2}, Itemset{1, 2}) != 0 {
		t.Error("equal sets compare nonzero")
	}
	if CompareLex(Itemset{1}, Itemset{1, 2}) >= 0 {
		t.Error("prefix should sort first")
	}
}

func TestSubsets(t *testing.T) {
	var got []Itemset
	Subsets(Itemset{1, 2, 3}, func(sub Itemset) { got = append(got, sub.Clone()) })
	if len(got) != 8 {
		t.Fatalf("Subsets of 3-set yielded %d subsets", len(got))
	}
	seen := make(map[string]bool)
	for _, sub := range got {
		seen[sub.Key()] = true
	}
	if len(seen) != 8 {
		t.Fatal("Subsets yielded duplicates")
	}
}

func TestSubsetsPanicsOnHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subsets on 31-set did not panic")
		}
	}()
	big := make(Itemset, 31)
	for i := range big {
		big[i] = i
	}
	Subsets(big, func(Itemset) {})
}

// --- property tests ---

func fromMask(mask uint32) Itemset {
	var s Itemset
	for i := 0; i < 20; i++ {
		if mask&(1<<uint(i)) != 0 {
			s = append(s, i)
		}
	}
	return s
}

func TestSetAlgebraQuick(t *testing.T) {
	err := quick.Check(func(ma, mb uint32) bool {
		a, b := fromMask(ma), fromMask(mb)
		u, inter := a.Union(b), a.Intersect(b)
		if !Canonical(u).Equal(u) || !Canonical(inter).Equal(inter) {
			return false
		}
		// inclusion–exclusion
		if len(u)+len(inter) != len(a)+len(b) {
			return false
		}
		if a.UnionLen(b) != len(u) || a.IntersectLen(b) != len(inter) {
			return false
		}
		// subset relations
		if !inter.SubsetOf(a) || !a.SubsetOf(u) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceMetricQuick(t *testing.T) {
	err := quick.Check(func(ma, mb, mc uint32) bool {
		a, b, c := fromMask(ma), fromMask(mb), fromMask(mc)
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			return false // symmetry
		}
		if (dab == 0) != a.Equal(b) {
			return false // identity of indiscernibles
		}
		// triangle inequality
		return EditDistance(a, c) <= dab+EditDistance(b, c)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatalf("edit distance is not a metric: %v", err)
	}
}

// TestFingerprintMatchesKeyDedup proves the 128-bit fingerprint
// distinguishes itemsets exactly as the canonical string key does on a
// randomized corpus: equal keys ⇔ equal fingerprints.
func TestFingerprintMatchesKeyDedup(t *testing.T) {
	err := quick.Check(func(raws [][]int) bool {
		byKey := make(map[string]Fingerprint)
		for _, raw := range raws {
			s := Canonical(raw)
			f := s.Fingerprint()
			if prev, ok := byKey[s.Key()]; ok && prev != f {
				t.Logf("same key %q, different fingerprints", s.Key())
				return false
			}
			byKey[s.Key()] = f
		}
		seen := make(map[Fingerprint]string)
		for k, f := range byKey {
			if prev, ok := seen[f]; ok && prev != k {
				t.Logf("fingerprint collision: %q vs %q", prev, k)
				return false
			}
			seen[f] = k
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintSensitivity checks the cheap structural cases string keys
// get right: permutation-invariance via Canonical, length sensitivity, and
// prefix/suffix distinctions.
func TestFingerprintSensitivity(t *testing.T) {
	a := Itemset{1, 2, 3}
	if a.Fingerprint() != Canonical([]int{3, 2, 1}).Fingerprint() {
		t.Fatal("canonicalized permutation changed the fingerprint")
	}
	distinct := []Itemset{nil, {0}, {1}, {0, 1}, {1, 2}, {1, 2, 3}, {1, 2, 4}, {12, 3}, {1, 23}}
	seen := make(map[Fingerprint]Itemset)
	for _, s := range distinct {
		f := s.Fingerprint()
		if prev, ok := seen[f]; ok {
			t.Fatalf("collision between %v and %v", prev, s)
		}
		seen[f] = s
	}
}
