package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/itemset"
	"repro/internal/rng"
	"repro/internal/tidset"
)

// paperDB is the transaction database of Figure 3: four distinct
// transactions, each duplicated 100 times, over items a=0, b=1, c=2, e=3,
// f=4.
func paperDB(t *testing.T) *Dataset {
	t.Helper()
	var txns [][]int
	rows := [][]int{
		{0, 1, 3},       // (abe)
		{1, 2, 4},       // (bcf)
		{0, 2, 4},       // (acf)
		{0, 1, 2, 3, 4}, // (abcef)
	}
	for _, row := range rows {
		for i := 0; i < 100; i++ {
			txns = append(txns, row)
		}
	}
	return MustNew(txns)
}

func TestNewBasics(t *testing.T) {
	d := MustNew([][]int{{3, 1, 1, 2}, {}, {0}})
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.NumItems() != 4 {
		t.Fatalf("NumItems = %d", d.NumItems())
	}
	if !d.Transaction(0).Equal(itemset.Itemset{1, 2, 3}) {
		t.Fatalf("transaction not canonicalized: %v", d.Transaction(0))
	}
	if len(d.Transaction(1)) != 0 {
		t.Fatal("empty transaction lost")
	}
}

func TestNewRejectsNegativeItems(t *testing.T) {
	if _, err := New([][]int{{1, -2}}); err == nil {
		t.Fatal("negative item accepted")
	}
}

func TestEmptyDataset(t *testing.T) {
	d := MustNew(nil)
	if d.Size() != 0 || d.NumItems() != 0 {
		t.Fatal("empty dataset has nonzero size")
	}
	if d.Support(itemset.Itemset{1}) != 0 {
		t.Fatal("support in empty dataset nonzero")
	}
}

func TestSupportCounts(t *testing.T) {
	d := paperDB(t)
	cases := []struct {
		alpha []int
		want  int
	}{
		{[]int{0}, 300},       // a: abe, acf, abcef
		{[]int{0, 1}, 200},    // ab: abe, abcef
		{[]int{0, 1, 3}, 200}, // abe
		{[]int{1, 2, 4}, 200}, // bcf
		{[]int{0, 1, 2, 3, 4}, 100},
		{[]int{3, 4}, 100}, // ef only in abcef
		{nil, 400},         // empty itemset in every transaction
	}
	for _, c := range cases {
		if got := d.SupportCount(itemset.Canonical(c.alpha)); got != c.want {
			t.Errorf("SupportCount(%v) = %d, want %d", c.alpha, got, c.want)
		}
	}
}

func TestSupportOfUnknownItem(t *testing.T) {
	d := paperDB(t)
	if got := d.SupportCount(itemset.Itemset{99}); got != 0 {
		t.Fatalf("unknown item support = %d", got)
	}
	if got := d.SupportCount(itemset.Itemset{0, 99}); got != 0 {
		t.Fatalf("itemset with unknown item support = %d", got)
	}
	if d.ItemTIDs(99) != nil {
		t.Fatal("ItemTIDs out of universe should be nil")
	}
}

func TestRelativeSupport(t *testing.T) {
	d := paperDB(t)
	if got := d.Support(itemset.Itemset{0}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Support(a) = %v, want 0.75", got)
	}
}

func TestMinCount(t *testing.T) {
	d := paperDB(t) // 400 transactions
	cases := []struct {
		sigma float64
		want  int
	}{
		{0, 1},
		{0.5, 200},
		{0.25, 100},
		{0.003, 2}, // ceil(1.2)
		{1, 400},
	}
	for _, c := range cases {
		if got := d.MinCount(c.sigma); got != c.want {
			t.Errorf("MinCount(%v) = %d, want %d", c.sigma, got, c.want)
		}
	}
}

func TestClosure(t *testing.T) {
	d := paperDB(t)
	// (e) appears in abe and abcef; intersection = abe → closure(e) = {a,b,e}.
	got := d.Closure(itemset.Itemset{3})
	if !got.Equal(itemset.Itemset{0, 1, 3}) {
		t.Fatalf("Closure(e) = %v, want (a b e)", got)
	}
	// closure of a full transaction is itself.
	full := itemset.Itemset{0, 1, 2, 3, 4}
	if !d.Closure(full).Equal(full) {
		t.Fatal("closure of abcef not itself")
	}
	// closure of an infrequent set is itself.
	if got := d.Closure(itemset.Itemset{99}); !got.Equal(itemset.Itemset{99}) {
		t.Fatalf("closure of unsupported set = %v", got)
	}
}

func TestFrequentItems(t *testing.T) {
	d := paperDB(t)
	got := d.FrequentItems(300)
	// a:300, b:300, c:300, e:200, f:300
	want := []int{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("FrequentItems(300) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FrequentItems(300) = %v", got)
		}
	}
}

func TestComputeStats(t *testing.T) {
	d := MustNew([][]int{{0, 1}, {2}, {}})
	s := d.ComputeStats()
	if s.Transactions != 3 || s.DistinctItems != 3 || s.UniverseSize != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinTxnLen != 0 || s.MaxTxnLen != 2 || math.Abs(s.AvgTxnLen-1.0) > 1e-12 {
		t.Fatalf("stats lengths = %+v", s)
	}
	if !strings.Contains(s.String(), "transactions=3") {
		t.Fatalf("Stats.String = %q", s.String())
	}
}

func TestPattern(t *testing.T) {
	d := paperDB(t)
	p := NewPattern(d, itemset.Itemset{0, 1})
	q := NewPattern(d, itemset.Itemset{1, 2})
	if p.Support() != 200 || q.Support() != 200 {
		t.Fatalf("supports %d, %d", p.Support(), q.Support())
	}
	// D_ab = {abe, abcef}, D_bc = {bcf, abcef}: |∩|=100, |∪|=300.
	if got := p.Distance(q); math.Abs(got-(1-100.0/300)) > 1e-12 {
		t.Fatalf("Distance = %v", got)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d", p.Size())
	}
	if !strings.Contains(p.String(), ":200") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSortAndDedupPatterns(t *testing.T) {
	d := paperDB(t)
	ps := []*Pattern{
		NewPattern(d, itemset.Itemset{0}),
		NewPattern(d, itemset.Itemset{0, 1, 3}),
		NewPattern(d, itemset.Itemset{0}),
		NewPattern(d, itemset.Itemset{3, 4}),
	}
	ps = DedupPatterns(ps)
	if len(ps) != 3 {
		t.Fatalf("DedupPatterns kept %d", len(ps))
	}
	SortPatterns(ps)
	if len(ps[0].Items) != 3 {
		t.Fatalf("sort order wrong: %v", ps[0].Items)
	}
	sets := Itemsets(ps)
	if len(sets) != 3 || !sets[0].Equal(itemset.Itemset{0, 1, 3}) {
		t.Fatalf("Itemsets projection wrong: %v", sets)
	}
}

func TestTIDSetMatchesNaiveScan(t *testing.T) {
	d := paperDB(t)
	alpha := itemset.Itemset{0, 2}
	tids := d.TIDSet(alpha)
	for tid := 0; tid < d.Size(); tid++ {
		want := alpha.SubsetOf(d.Transaction(tid))
		if tids.Test(tid) != want {
			t.Fatalf("TIDSet disagrees with scan at tid %d", tid)
		}
	}
}

// forceRepr returns a copy of tids in the requested representation, built
// through tidset.Builder with a declared count on the chosen side of the
// sparse threshold.
func forceRepr(tids *tidset.Set, dense bool) *tidset.Set {
	declared := 0 // sparse
	if dense {
		declared = tids.Cap() + 1 // above SparseThreshold for any universe
	}
	b := tidset.NewBuilder(tids.Cap(), []int{declared})
	tids.ForEach(func(tid int) { b.Add(0, tid) })
	return b.Sets()[0]
}

// checkCloser compares Closer.Closure with the naive intersection-chain
// Dataset.Closure on each probe's support set, with the set forced dense
// and forced sparse so every SubsetOf pairing against the columns runs.
func checkCloser(t *testing.T, d *Dataset, probes []itemset.Itemset) {
	t.Helper()
	closer := NewCloser(d)
	for _, alpha := range probes {
		want := d.Closure(alpha)
		for _, dense := range []bool{false, true} {
			tids := forceRepr(d.TIDSet(alpha), dense)
			if tids.IsDense() != dense {
				t.Fatalf("forceRepr(dense=%v) gave dense=%v", dense, tids.IsDense())
			}
			got := closer.Closure(tids)
			if tids.Count() == 0 {
				// Closure returns alpha itself on empty support; Closer
				// (which only sees the TID set) returns nil. Both mean
				// "no supporting transactions".
				if got != nil {
					t.Fatalf("Closure of empty support = %v, want nil", got)
				}
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("vertical closure (dense=%v) of %v = %v, want %v", dense, alpha, got, want)
			}
		}
	}
}

// TestCloserMatchesClosure is the differential test for the vertical
// closure: on randomized datasets, Closer.Closure must equal the naive
// intersection-chain Dataset.Closure for every frequent itemset's support
// set (and for single-transaction and empty supports), whichever
// representation the support set is in.
func TestCloserMatchesClosure(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		nTxn := 5 + r.Intn(40)
		nItems := 3 + r.Intn(20)
		txns := make([][]int, nTxn)
		for i := range txns {
			l := r.Intn(nItems)
			row := make([]int, 0, l)
			for j := 0; j < l; j++ {
				row = append(row, r.Intn(nItems))
			}
			txns[i] = row
		}
		d := MustNew(txns)
		// Probe with every single item, random pairs, and random triples.
		var probes []itemset.Itemset
		for it := 0; it < d.NumItems(); it++ {
			probes = append(probes, itemset.Itemset{it})
		}
		for k := 0; k < 20; k++ {
			probes = append(probes, itemset.Canonical([]int{r.Intn(nItems), r.Intn(nItems), r.Intn(nItems)}))
		}
		checkCloser(t, d, probes)
	}
}

// TestCloserWideTransactions runs the differential check on a
// Microarray-shaped fixture: a few rows of thousands of items each, where
// a closure keeps most of the first row and every column test is one or
// two words.
func TestCloserWideTransactions(t *testing.T) {
	r := rng.New(5)
	const rows, items = 12, 4000
	txns := make([][]int, rows)
	for i := range txns {
		for it := 0; it < items; it++ {
			if r.Intn(10) < 7 {
				txns[i] = append(txns[i], it)
			}
		}
	}
	d := MustNew(txns)
	probes := []itemset.Itemset{nil}
	for k := 0; k < 40; k++ {
		probes = append(probes, itemset.Canonical([]int{r.Intn(items), r.Intn(items)}))
	}
	checkCloser(t, d, probes)
}

// TestCloserEmptyFirstRow covers a support set whose first transaction is
// empty: the closure is empty, not the union of the other rows' items.
func TestCloserEmptyFirstRow(t *testing.T) {
	d := MustNew([][]int{{}, {0, 1}, {0, 1, 2}})
	all := tidset.Full(d.Size())
	for _, dense := range []bool{false, true} {
		if got := NewCloser(d).Closure(forceRepr(all, dense)); len(got) != 0 {
			t.Fatalf("dense=%v: closure of all rows = %v, want empty", dense, got)
		}
	}
	checkCloser(t, d, []itemset.Itemset{nil, {0}, {2}})
}

// TestCloserReusesBuffer documents the aliasing contract: the returned
// itemset is invalidated by the next Closure call.
func TestCloserReusesBuffer(t *testing.T) {
	d := paperDB(t)
	closer := NewCloser(d)
	a := closer.Closure(d.TIDSet(itemset.Itemset{0, 1, 3}))
	cloned := a.Clone()
	closer.Closure(d.TIDSet(itemset.Itemset{2}))
	if !cloned.Equal(d.Closure(itemset.Itemset{0, 1, 3})) {
		t.Fatal("cloned closure corrupted")
	}
}

// TestPatternSupportMemo pins the support cache semantics: constructors
// memoize, struct literals fall back to counting.
func TestPatternSupportMemo(t *testing.T) {
	d := paperDB(t)
	p := NewPattern(d, itemset.Itemset{0, 1})
	if p.Support() != 200 {
		t.Fatalf("Support = %d, want 200", p.Support())
	}
	lit := &Pattern{Items: itemset.Itemset{0, 1}, TIDs: d.TIDSet(itemset.Itemset{0, 1})}
	if lit.Support() != 200 {
		t.Fatalf("literal Support = %d, want 200", lit.Support())
	}
	// A literal pattern must not cache: mutating TIDs in place is visible.
	lit.TIDs.Remove(lit.TIDs.NextSet(0))
	if lit.Support() != 199 {
		t.Fatalf("literal Support after Clear = %d, want 199", lit.Support())
	}
	// A constructor-built pattern caches.
	p.TIDs.Remove(p.TIDs.NextSet(0))
	if p.Support() != 200 {
		t.Fatalf("cached Support recounted: %d", p.Support())
	}
	q := NewPatternCounted(itemset.Itemset{7}, d.TIDSet(itemset.Itemset{0}), 100)
	if q.Support() != 100 {
		t.Fatalf("NewPatternCounted Support = %d", q.Support())
	}
	e := &Pattern{Items: nil, TIDs: d.TIDSet(itemset.Itemset{0, 1, 2, 3, 4})}
	e.EnsureSupport()
	if e.Support() != 100 {
		t.Fatalf("EnsureSupport = %d, want 100", e.Support())
	}
}

// TestDedupPatternsMatchesStringKeys is the differential test for the
// fingerprint-keyed dedup: on randomized pattern lists it must keep exactly
// the patterns a string-keyed dedup keeps, in the same order.
func TestDedupPatternsMatchesStringKeys(t *testing.T) {
	r := rng.New(23)
	d := paperDB(t)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		ps := make([]*Pattern, 0, n)
		for i := 0; i < n; i++ {
			l := r.Intn(4)
			raw := make([]int, 0, l)
			for j := 0; j < l; j++ {
				raw = append(raw, r.Intn(5))
			}
			ps = append(ps, NewPattern(d, itemset.Canonical(raw)))
		}
		// Naive string-keyed dedup, first occurrence wins.
		seen := make(map[string]bool)
		var want []*Pattern
		for _, p := range ps {
			if !seen[p.Items.Key()] {
				seen[p.Items.Key()] = true
				want = append(want, p)
			}
		}
		got := DedupPatterns(ps)
		if len(got) != len(want) {
			t.Fatalf("trial %d: dedup kept %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: survivor %d is %v, want %v", trial, i, got[i].Items, want[i].Items)
			}
		}
	}
}

// TestSetSequencesChecksContract pins that SetSequences rejects an
// ordered view whose distinct events differ from the transactions — the
// sequence miner reads event supports from the item columns, so a
// mismatch would silently corrupt them — and names the offending row.
func TestSetSequencesChecksContract(t *testing.T) {
	d := MustNew([][]int{{1, 2}, {0, 3}, {}})
	d.SetSequences([][]int{{2, 1, 2}, {3, 0}, {}}) // repeats and order are free
	d.SetSequences(nil)
	for name, rows := range map[string][][]int{
		"row count":     {{1, 2}, {0, 3}},
		"foreign event": {{1, 2}, {0, 3, 1}, {}},
		"missing item":  {{1, 2}, {3}, {}},
		"out of range":  {{1, 2}, {0, 3}, {4}},
		"negative":      {{1, 2, -1}, {0, 3}, {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetSequences(%v) did not panic", name, rows)
				}
			}()
			d.SetSequences(rows)
		}()
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "row 1") {
				t.Errorf("panic %q does not name row 1", msg)
			}
		}()
		d.SetSequences([][]int{{1, 2}, {3}, {}})
	}()
}
