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
