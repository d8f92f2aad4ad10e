package seqfusion

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/seq"
)

// orderedView builds the view of a dataset whose ordered rows are rows,
// the way a "seq"-format ingestion delivers it.
func orderedView(t *testing.T, rows [][]int) view {
	t.Helper()
	d, err := dataset.New(rows)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSequences(rows)
	return newView(d)
}

func TestDatasetSupport(t *testing.T) {
	v := orderedView(t, [][]int{
		{1, 2, 3, 4},
		{1, 3, 4},
		{2, 1, 4},
		{4, 3, 2, 1},
	})
	cases := []struct {
		p    seq.Sequence
		want int
	}{
		{seq.Sequence{1}, 4},
		{seq.Sequence{1, 4}, 3}, // not in <4 3 2 1>
		{seq.Sequence{4, 1}, 1}, // only <4 3 2 1> has 4 before 1
		{seq.Sequence{1, 2, 3, 4}, 1},
		{seq.Sequence{9}, 0},
		{nil, 4},
	}
	for _, c := range cases {
		if got := v.tidSet(c.p).Count(); got != c.want {
			t.Errorf("support(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestFoldClosure(t *testing.T) {
	v := orderedView(t, [][]int{
		{9, 1, 2, 3, 8},
		{1, 7, 2, 3},
		{0, 1, 2, 6, 3},
	})
	tids := v.tidSet(seq.Sequence{1, 2})
	if tids.Count() != 3 {
		t.Fatalf("support(1 2) = %d", tids.Count())
	}
	c := v.foldClosure(tids)
	if !c.Equal(seq.Sequence{1, 2, 3}) {
		t.Fatalf("closure = %v, want <1 2 3>", c)
	}
}

// seqDigest canonically hashes a sequence for golden comparison.
func seqDigest(s seq.Sequence) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint([]int(s)))))
}

// TestFoldClosureReplaceGolden golden-pins the LCS-fold closure on the
// Replace fixture read as sequences (datagen.ReplaceSequences: each row
// is generated in ascending item order, so a planted colossal itemset
// reads as a planted colossal subsequence of every row containing it).
// Folding over each planted pattern's own support set must reproduce a
// closure that (a) contains the full planted subsequence — the fold
// heuristic is exact in the planted-colossal regime — and (b) hashes to
// the pinned bytes, so any change to the fold order, tie-breaking, or
// LCS kernel is caught here as well as by the miner's report hash.
func TestFoldClosureReplaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("Replace fixture generation is slow")
	}
	rows, planted := datagen.ReplaceSequences(1)
	v := orderedView(t, rows)
	golden := []struct {
		support int
		length  int
		digest  string
	}{
		{support: 147, length: 44, digest: "e2b4b1cab448c1343187d1037ab820f9951f1f9b5b0f78c44f26ef9fd77e2372"},
		{support: 138, length: 44, digest: "e797fb60a4313e9864c8ad22dc089475b53836268fdaf382948dad363df50237"},
		{support: 145, length: 44, digest: "811837079e26a7affabd4678354a613305f49b05d9806319ca4e2acc70fd1511"},
	}
	for i, row := range planted {
		p := seq.Sequence(row)
		tids := v.tidSet(p)
		if tids.Count() == 0 {
			t.Fatalf("planted pattern %d has no support", i)
		}
		closure := v.foldClosure(tids)
		if !p.IsSubsequenceOf(closure) {
			t.Fatalf("planted pattern %d not contained in its support's closure %v", i, closure)
		}
		if got := tids.Count(); got != golden[i].support {
			t.Errorf("planted pattern %d: support = %d, want %d", i, got, golden[i].support)
		}
		if got := len(closure); got != golden[i].length {
			t.Errorf("planted pattern %d: closure length = %d, want %d", i, got, golden[i].length)
		}
		if got := seqDigest(closure); got != golden[i].digest {
			t.Errorf("planted pattern %d: closure digest = %s, want %s", i, got, golden[i].digest)
		}
	}
}
