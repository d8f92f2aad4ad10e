package bitset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Set(10) },
		func() { New(10).Set(-1) },
		func() { New(10).Test(10) },
		func() { New(10).Clear(10) },
		func() { New(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestZeroCapacity(t *testing.T) {
	b := New(0)
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero-capacity bitset not empty")
	}
	b.SetAll()
	if b.Count() != 0 {
		t.Fatal("SetAll on zero-capacity set bits")
	}
}

func TestSetAllRespectsCapacity(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("SetAll(%d): Count = %d", n, got)
		}
	}
}

func TestBooleanAlgebra(t *testing.T) {
	a := FromIndices(100, []int{1, 5, 64, 99})
	b := FromIndices(100, []int{5, 64, 70})

	and := a.And(b)
	if got := and.Indices(); len(got) != 2 || got[0] != 5 || got[1] != 64 {
		t.Fatalf("And = %v", got)
	}
	if a.AndCount(b) != 2 {
		t.Fatalf("AndCount = %d, want 2", a.AndCount(b))
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched capacity did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestSubsetEqual(t *testing.T) {
	a := FromIndices(70, []int{1, 2, 65})
	b := FromIndices(70, []int{1, 2, 3, 65})
	if !a.SubsetOf(b) {
		t.Fatal("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b should not be subset of a")
	}
	if c := a.Clone(); !a.SubsetOf(c) || !c.SubsetOf(a) {
		t.Fatal("clone not equal")
	}
}

func TestJaccardAndDistance(t *testing.T) {
	a := FromIndices(10, []int{0, 1, 2})
	b := FromIndices(10, []int{1, 2, 3})
	if got := a.Jaccard(b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 0.5", got)
	}
	if got := a.Distance(b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Distance = %v, want 0.5", got)
	}
	if got := a.Distance(a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	e1, e2 := New(10), New(10)
	if e1.Jaccard(e2) != 1 || e1.Distance(e2) != 0 {
		t.Fatal("empty-set Jaccard/Distance convention violated")
	}
}

func TestForEachAndNextSet(t *testing.T) {
	idx := []int{3, 64, 65, 127}
	b := FromIndices(128, idx)
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(idx) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("ForEach order: %v", got)
		}
	}
	if b.NextSet(0) != 3 || b.NextSet(4) != 64 || b.NextSet(66) != 127 || b.NextSet(128) != -1 {
		t.Fatal("NextSet wrong")
	}
	if b.NextSet(-5) != 3 {
		t.Fatal("NextSet with negative start wrong")
	}
	if b.NextSet(127) != 127 {
		t.Fatal("NextSet at a set bit should return it")
	}
}

// randomSet builds a bitset of capacity n from a seed mask (property tests).
func fromMask(n int, mask uint64) *Bitset {
	b := New(n)
	for i := 0; i < n && i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			b.Set(i)
		}
	}
	return b
}

func sameMembers(a, b *Bitset) bool { return slices.Equal(a.Indices(), b.Indices()) }

func TestAlgebraLawsQuick(t *testing.T) {
	const n = 60
	// Subset and commutativity laws on random sets.
	err := quick.Check(func(ma, mb uint64) bool {
		a, b := fromMask(n, ma), fromMask(n, mb)
		// subset relation consistency
		if !a.And(b).SubsetOf(a) || !a.And(b).SubsetOf(b) {
			return false
		}
		// commutativity
		return sameMembers(a.And(b), b.And(a))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequalityQuick(t *testing.T) {
	const n = 48
	err := quick.Check(func(ma, mb, mc uint64) bool {
		a, b, c := fromMask(n, ma), fromMask(n, mb), fromMask(n, mc)
		dab, dbc, dac := a.Distance(b), b.Distance(c), a.Distance(c)
		return dac <= dab+dbc+1e-12
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatalf("Jaccard distance violated triangle inequality (Theorem 1): %v", err)
	}
}

func TestInPlaceOpsMatchAllocating(t *testing.T) {
	err := quick.Check(func(ma, mb uint64) bool {
		a, b := fromMask(64, ma), fromMask(64, mb)
		x := a.Clone()
		x.InPlaceAnd(b)
		y := New(64)
		y.AndOf(a, b)
		return sameMembers(x, a.And(b)) && sameMembers(y, x)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestAndCountAtLeastDifferential pins AndCountAtLeast against the naive
// AndCount for randomized sets and every relevant threshold, including the
// boundaries where the early exits fire.
func TestAndCountAtLeastDifferential(t *testing.T) {
	err := quick.Check(func(ma, mb uint64) bool {
		a, b := fromMask(64, ma), fromMask(64, mb)
		c := a.AndCount(b)
		for _, threshold := range []int{-1, 0, 1, c - 1, c, c + 1, 64, 65} {
			if got, want := a.AndCountAtLeast(b, threshold), c >= threshold; got != want {
				t.Logf("AndCountAtLeast(%d) = %v, count %d", threshold, got, c)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAndCountAtLeastMultiWord exercises the both-direction early exits on
// sets spanning many words.
func TestAndCountAtLeastMultiWord(t *testing.T) {
	const n = 1000
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	c := a.AndCount(b)
	for threshold := 0; threshold <= c+5; threshold++ {
		if got, want := a.AndCountAtLeast(b, threshold), c >= threshold; got != want {
			t.Fatalf("threshold %d: got %v, count %d", threshold, got, c)
		}
	}
	if a.AndCountAtLeast(b, n+1) {
		t.Fatal("threshold above capacity reported reachable")
	}
}
