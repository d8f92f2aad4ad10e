package seq

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIsSubsequenceOf(t *testing.T) {
	cases := []struct {
		s, t Sequence
		want bool
	}{
		{nil, Sequence{1, 2}, true},
		{Sequence{1}, Sequence{1}, true},
		{Sequence{1, 3}, Sequence{1, 2, 3}, true},
		{Sequence{3, 1}, Sequence{1, 2, 3}, false},
		{Sequence{1, 1}, Sequence{1, 2, 1}, true},
		{Sequence{1, 1}, Sequence{1}, false},
		{Sequence{2}, Sequence{1, 3}, false},
	}
	for _, c := range cases {
		if got := c.s.IsSubsequenceOf(c.t); got != c.want {
			t.Errorf("%v ⊑ %v = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestLCSBasics(t *testing.T) {
	cases := []struct {
		a, b, want Sequence
	}{
		{Sequence{1, 2, 3}, Sequence{1, 2, 3}, Sequence{1, 2, 3}},
		{Sequence{1, 2, 3}, Sequence{2, 3, 4}, Sequence{2, 3}},
		{Sequence{1, 2}, Sequence{3, 4}, nil},
		{nil, Sequence{1}, nil},
		{Sequence{1, 3, 5, 7}, Sequence{0, 1, 2, 3, 4, 5}, Sequence{1, 3, 5}},
	}
	for _, c := range cases {
		got := LCS(c.a, c.b)
		if !got.Equal(c.want) {
			t.Errorf("LCS(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func randomSeq(r *rng.RNG, maxLen, alphabet int) Sequence {
	l := r.Intn(maxLen + 1)
	s := make(Sequence, l)
	for i := range s {
		s[i] = r.Intn(alphabet)
	}
	return s
}

func TestLCSPropertiesQuick(t *testing.T) {
	r := rng.New(99)
	err := quick.Check(func(seedA, seedB uint64) bool {
		a := randomSeq(rng.New(seedA), 12, 5)
		b := randomSeq(rng.New(seedB), 12, 5)
		l := LCS(a, b)
		// The LCS is a subsequence of both inputs.
		if !l.IsSubsequenceOf(a) || !l.IsSubsequenceOf(b) {
			return false
		}
		// Symmetric in length.
		if len(LCS(b, a)) != len(l) {
			return false
		}
		// No longer than either input; equal to a when a ⊑ b.
		if len(l) > len(a) || len(l) > len(b) {
			return false
		}
		if a.IsSubsequenceOf(b) && !l.Equal(a) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestDatasetSupport(t *testing.T) {
	d := MustNewDataset([]Sequence{
		{1, 2, 3, 4},
		{1, 3, 4},
		{2, 1, 4},
		{4, 3, 2, 1},
	})
	cases := []struct {
		p    Sequence
		want int
	}{
		{Sequence{1}, 4},
		{Sequence{1, 4}, 3}, // not in <4 3 2 1>
		{Sequence{4, 1}, 1}, // only <4 3 2 1> has 4 before 1
		{Sequence{1, 2, 3, 4}, 1},
		{Sequence{9}, 0},
		{nil, 4},
	}
	for _, c := range cases {
		if got := d.SupportCount(c.p); got != c.want {
			t.Errorf("support(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestDatasetRejectsNegative(t *testing.T) {
	if _, err := NewDataset([]Sequence{{1, -1}}); err == nil {
		t.Fatal("negative event accepted")
	}
}

func TestFoldClosure(t *testing.T) {
	d := MustNewDataset([]Sequence{
		{9, 1, 2, 3, 8},
		{1, 7, 2, 3},
		{0, 1, 2, 6, 3},
	})
	tids := d.TIDSet(Sequence{1, 2})
	if tids.Count() != 3 {
		t.Fatalf("support(1 2) = %d", tids.Count())
	}
	c := d.FoldClosure(tids)
	if !c.Equal(Sequence{1, 2, 3}) {
		t.Fatalf("closure = %v, want <1 2 3>", c)
	}
}
