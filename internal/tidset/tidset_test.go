package tidset

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// mkBoth builds the same index set as a tidset.Set (in the representation
// FromIndices picks) and as a dense reference bitset.
func mkBoth(n int, idx []int) (*Set, *bitset.Bitset) {
	return FromIndices(n, idx), bitset.FromIndices(n, idx)
}

// force returns s converted to the requested representation (fresh copy).
func force(s *Set, dense bool) *Set {
	c := New(s.n)
	if dense {
		c.DenseCopyFrom(s)
		return c
	}
	c.card = s.card
	s.ForEach(func(i int) { c.elems = append(c.elems, uint32(i)) })
	return c
}

func TestRepresentationChoice(t *testing.T) {
	n := 3200
	sparse := FromIndices(n, []int{5, 99, 2000})
	if sparse.IsDense() {
		t.Errorf("3 of %d elements should be sparse", n)
	}
	var many []int
	for i := 0; i < n; i += 2 {
		many = append(many, i)
	}
	if d := FromIndices(n, many); !d.IsDense() {
		t.Errorf("%d of %d elements should be dense", len(many), n)
	}
	if thr := SparseThreshold(n); thr != 100 {
		t.Errorf("SparseThreshold(%d) = %d, want 100", n, thr)
	}
}

func TestBasicOpsMatchBitset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		var ia, ib []int
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				ia = append(ia, i)
			}
			if r.Intn(2) == 0 {
				ib = append(ib, i)
			}
		}
		sa, ba := mkBoth(n, ia)
		sb, bb := mkBoth(n, ib)

		// Cover every representation pairing, not just the natural one.
		for _, da := range []bool{false, true} {
			for _, db := range []bool{false, true} {
				a, b := force(sa, da), force(sb, db)
				if a.Count() != ba.Count() {
					t.Fatalf("Count: %d vs %d", a.Count(), ba.Count())
				}
				if got, want := a.AndCount(b), ba.AndCount(bb); got != want {
					t.Fatalf("AndCount(dense=%v/%v): %d vs %d", da, db, got, want)
				}
				if got, want := a.Jaccard(b), ba.Jaccard(bb); got != want {
					t.Fatalf("Jaccard: %v vs %v", got, want)
				}
				if got, want := a.Distance(b), ba.Distance(bb); got != want {
					t.Fatalf("Distance: %v vs %v", got, want)
				}
				for thr := -1; thr <= a.Count()+2; thr++ {
					if got, want := a.AndCountAtLeast(b, thr), ba.AndCountAtLeast(bb, thr); got != want {
						t.Fatalf("AndCountAtLeast(%d, dense=%v/%v): %v vs %v", thr, da, db, got, want)
					}
				}
				and := a.And(b)
				if got, want := and.Indices(), ba.And(bb).Indices(); !reflect.DeepEqual(got, want) {
					t.Fatalf("And members: %v vs %v", got, want)
				}
				ip := a.Clone()
				ip.InPlaceAnd(b)
				if !ip.Equal(and) {
					t.Fatalf("InPlaceAnd disagrees with And")
				}
				if got, want := and.Count(), len(and.Indices()); got != want {
					t.Fatalf("maintained card %d vs actual %d", got, want)
				}
			}
		}

		// Iteration, membership, NextSet against the reference.
		if got, want := sa.Indices(), ba.Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Indices: %v vs %v", got, want)
		}
		for i := 0; i < n; i++ {
			if sa.Test(i) != ba.Test(i) {
				t.Fatalf("Test(%d) mismatch", i)
			}
			if got, want := sa.NextSet(i), ba.NextSet(i); got != want {
				t.Fatalf("NextSet(%d): %d vs %d", i, got, want)
			}
		}
	}
}

// TestSubsetOfMatchesBitset pins SubsetOf against the bitset reference
// (a ⊆ b iff |a∩b| = |a|) on sets built to straddle the answer: a random
// subset of b, the same with one member outside b (so the cardinality
// prefilter passes and the scan must find the miss), and the empty set,
// under all four representation pairings.
func TestSubsetOfMatchesBitset(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		var ib, sub, outside []int
		for i := 0; i < n; i++ {
			if r.Intn(3) != 0 {
				ib = append(ib, i)
				if r.Intn(2) == 0 {
					sub = append(sub, i)
				}
			} else {
				outside = append(outside, i)
			}
		}
		cases := [][]int{sub, nil}
		if len(outside) > 0 {
			cases = append(cases, append(append([]int(nil), sub...), outside[r.Intn(len(outside))]))
		}
		sb, bb := mkBoth(n, ib)
		for _, ia := range cases {
			sa, ba := mkBoth(n, ia)
			want := ba.AndCount(bb) == ba.Count()
			for _, da := range []bool{false, true} {
				for _, db := range []bool{false, true} {
					if got := force(sa, da).SubsetOf(force(sb, db)); got != want {
						t.Fatalf("trial %d: SubsetOf(dense=%v/%v) of %v in %v = %v, want %v", trial, da, db, ia, ib, got, want)
					}
				}
			}
		}
	}
}

func TestCopyFromFlipsRepresentation(t *testing.T) {
	n := 256
	s := New(n)
	dense := Full(n)
	sparse := FromIndices(n, []int{3, 200})
	s.CopyFrom(dense)
	if !s.IsDense() || s.Count() != n {
		t.Fatalf("CopyFrom(dense): dense=%v count=%d", s.IsDense(), s.Count())
	}
	s.CopyFrom(sparse)
	if s.IsDense() || s.Count() != 2 {
		t.Fatalf("CopyFrom(sparse): dense=%v count=%d", s.IsDense(), s.Count())
	}
	// Flipping back must not allocate a fresh word array (retained payload).
	s.CopyFrom(dense)
	if !s.IsDense() || s.Count() != n {
		t.Fatalf("CopyFrom(dense) after flip: dense=%v count=%d", s.IsDense(), s.Count())
	}
}

func TestFullAndEdgeUniverses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		f := Full(n)
		if f.Count() != n {
			t.Fatalf("Full(%d).Count() = %d", n, f.Count())
		}
		if n > 0 && (f.NextSet(0) != 0 || f.NextSet(n-1) != n-1) {
			t.Fatalf("Full(%d) NextSet endpoints wrong", n)
		}
		if f.NextSet(n) != -1 {
			t.Fatalf("Full(%d).NextSet(n) = %d", n, f.NextSet(n))
		}
		e := New(n)
		if !e.Empty() || e.NextSet(0) != -1 {
			t.Fatalf("New(%d) not empty", n)
		}
	}
}

func TestCompactClone(t *testing.T) {
	n := 6400
	big := Full(n)
	small := big.And(FromIndices(n, []int{1, 2, 3}))
	for _, s := range []*Set{big, force(small, true), force(small, false)} {
		c := s.CompactClone()
		if !c.Equal(s) {
			t.Fatalf("CompactClone not equal to source")
		}
		if want := s.Count() <= SparseThreshold(n); c.IsDense() == want {
			t.Fatalf("CompactClone(card=%d) dense=%v", s.Count(), c.IsDense())
		}
	}
	// A dense-shaped intersection result with tiny cardinality compacts to sparse.
	r := Full(n)
	r.InPlaceAnd(Full(n))
	if !r.IsDense() {
		t.Fatal("dense∩dense should stay dense")
	}
}

func TestArenaCompactClone(t *testing.T) {
	var a Arena
	n := 1000
	r := rand.New(rand.NewSource(3))
	var clones []*Set
	var refs [][]int
	for i := 0; i < 2000; i++ {
		var idx []int
		for j := 0; j < n; j++ {
			if r.Intn(10) == 0 {
				idx = append(idx, j)
			}
		}
		s := FromIndices(n, idx)
		clones = append(clones, a.CompactClone(s))
		refs = append(refs, s.Indices())
	}
	// Every earlier clone must be intact after later carving.
	for i, c := range clones {
		if got := c.Indices(); !reflect.DeepEqual(got, refs[i]) {
			t.Fatalf("arena clone %d corrupted", i)
		}
	}
}

func TestBuilderMatchesFromIndices(t *testing.T) {
	rows := 500
	cols := [][]int{
		{0, 1, 2},            // sparse
		nil,                  // empty
		make([]int, 0, rows), // filled below: dense
		{10, 400, 499},       // sparse
	}
	for i := 0; i < rows; i += 2 {
		cols[2] = append(cols[2], i)
	}
	counts := make([]int, len(cols))
	for c := range cols {
		counts[c] = len(cols[c])
	}
	b := NewBuilder(rows, counts)
	for c, rowsOf := range cols {
		for _, row := range rowsOf {
			b.Add(c, row)
		}
	}
	sets := b.Sets()
	for c := range cols {
		want := FromIndices(rows, cols[c])
		if !sets[c].Equal(want) {
			t.Fatalf("column %d: %v vs %v", c, sets[c], want)
		}
		if sets[c].IsDense() != want.IsDense() {
			t.Fatalf("column %d representation: %v vs %v", c, sets[c].IsDense(), want.IsDense())
		}
	}
}

func TestExtendCloneMatchesFromIndices(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n0 := r.Intn(400)
		grow := r.Intn(400)
		n1 := n0 + grow
		var base, added []int
		for i := 0; i < n0; i++ {
			if r.Intn(3) == 0 {
				base = append(base, i)
			}
		}
		for i := n0; i < n1; i++ {
			if r.Intn(3) == 0 {
				added = append(added, i)
			}
		}
		addedU := make([]uint32, len(added))
		for i, v := range added {
			addedU[i] = uint32(v)
		}
		want := FromIndices(n1, append(append([]int(nil), base...), added...))
		for _, dense := range []bool{false, true} {
			src := force(FromIndices(n0, base), dense)
			before := src.Indices()
			got := src.ExtendClone(n1, addedU)
			if !got.Equal(want) {
				t.Fatalf("ExtendClone(%d→%d, dense=%v) members: %v vs %v", n0, n1, dense, got, want)
			}
			if got.IsDense() != want.IsDense() {
				t.Fatalf("ExtendClone(%d→%d, card=%d) dense=%v, FromIndices dense=%v",
					n0, n1, want.Count(), got.IsDense(), want.IsDense())
			}
			if got.Count() != len(base)+len(added) {
				t.Fatalf("ExtendClone card %d, want %d", got.Count(), len(base)+len(added))
			}
			if !reflect.DeepEqual(src.Indices(), before) {
				t.Fatalf("ExtendClone mutated its receiver")
			}
		}
	}
}

func TestExtendCloneChainEqualsOneShot(t *testing.T) {
	// A chain of appends must land on the same members and the same
	// representation as building the final set in one shot — the invariant
	// ingest.Appender relies on for append/re-ingest byte-identity.
	r := rand.New(rand.NewSource(29))
	var all []int
	s := New(0)
	n := 0
	for step := 0; step < 20; step++ {
		grow := 1 + r.Intn(200)
		var added []uint32
		for i := n; i < n+grow; i++ {
			if r.Intn(4) == 0 {
				added = append(added, uint32(i))
				all = append(all, i)
			}
		}
		n += grow
		s = s.ExtendClone(n, added)
		want := FromIndices(n, all)
		if !s.Equal(want) || s.IsDense() != want.IsDense() {
			t.Fatalf("step %d: chain (dense=%v) != one-shot (dense=%v): %v vs %v",
				step, s.IsDense(), want.IsDense(), s, want)
		}
	}
}

func TestExtendClonePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	s := FromIndices(100, []int{1, 2})
	expectPanic("shrinking universe", func() { s.ExtendClone(50, nil) })
	expectPanic("TID below old n", func() { s.ExtendClone(200, []uint32{99}) })
	expectPanic("TID at new n", func() { s.ExtendClone(200, []uint32{200}) })
	expectPanic("non-increasing TIDs", func() { s.ExtendClone(200, []uint32{150, 150}) })
}

func TestRemoveMatchesBitset(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dense := range []bool{false, true} {
		n := 200
		var idx []int
		for i := 0; i < n; i++ {
			if r.Intn(3) != 0 {
				idx = append(idx, i)
			}
		}
		s, b := mkBoth(n, idx)
		s = force(s, dense)
		for i := 0; i < n; i += 3 { // hits members and non-members alike
			s.Remove(i)
			b.Clear(i)
			if s.Count() != b.Count() {
				t.Fatalf("dense=%v: Count after Remove(%d): %d vs %d", dense, i, s.Count(), b.Count())
			}
		}
		if got, want := s.Indices(), b.Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("dense=%v: members after removals: %v vs %v", dense, got, want)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(128)
	a := p.Get()
	a.CopyFrom(Full(128))
	p.Put(a)
	b := p.Get()
	if a != b {
		t.Fatal("pool did not recycle the returned set")
	}
	b.AndOf(Full(128), FromIndices(128, []int{7}))
	if b.Count() != 1 || !b.Test(7) {
		t.Fatalf("recycled set computed wrong intersection: %v", b)
	}
}
