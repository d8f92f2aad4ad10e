// Package minertest provides brute-force oracles shared by the miner test
// suites: exhaustive frequent/closed/maximal enumeration over small item
// universes, against which Apriori, FP-growth, Eclat, the closed miners and
// the maximal miner are cross-checked on randomized databases.
package minertest

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
)

// Mine runs the registered algorithm name on d under opts through the
// engine — the only mining entry point — failing t on an error. The
// algorithm's package must be linked into the test binary.
func Mine(t testing.TB, ctx context.Context, name string, d *dataset.Dataset, opts engine.Options) *engine.Report {
	t.Helper()
	alg, err := engine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Mine(ctx, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// CancelAfter returns a Context whose Err flips to context.Canceled after
// it has been polled n times — the test-side replacement for the old
// count-based Canceled callbacks: it cancels mid-run at the miner's own
// polling cadence, however fast the run is. Only Err carries the
// cancellation signal; Done returns nil (block forever), which is
// sufficient for the miners, all of which poll Err.
func CancelAfter(n int) context.Context {
	return &cancelAfterCtx{limit: int64(n)}
}

type cancelAfterCtx struct {
	polls int64
	limit int64
}

func (c *cancelAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfterCtx) Done() <-chan struct{}       { return nil }
func (c *cancelAfterCtx) Value(any) any               { return nil }

func (c *cancelAfterCtx) Err() error {
	if atomic.AddInt64(&c.polls, 1) > c.limit {
		return context.Canceled
	}
	return nil
}

// BruteForceFrequent enumerates every non-empty frequent itemset of d by
// exhaustive subset enumeration over the item universe. It panics if the
// universe exceeds 16 items.
func BruteForceFrequent(d *dataset.Dataset, minCount int) map[string]int {
	n := d.NumItems()
	if n > 16 {
		panic("minertest: universe too large for brute force")
	}
	out := make(map[string]int)
	for mask := 1; mask < 1<<uint(n); mask++ {
		var s itemset.Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s = append(s, i)
			}
		}
		if c := d.SupportCount(s); c >= minCount {
			out[s.Key()] = c
		}
	}
	return out
}

// FilterClosed keeps the closed itemsets of a complete frequent map: those
// with no frequent superset of equal support.
func FilterClosed(frequent map[string]int) map[string]int {
	out := make(map[string]int)
	for k, c := range frequent {
		s := mustParse(k)
		closed := true
		for k2, c2 := range frequent {
			if k2 == k || c2 != c {
				continue
			}
			if s.ProperSubsetOf(mustParse(k2)) {
				closed = false
				break
			}
		}
		if closed {
			out[k] = c
		}
	}
	return out
}

// FilterMaximal keeps the maximal itemsets of a complete frequent map:
// those with no frequent proper superset.
func FilterMaximal(frequent map[string]int) map[string]int {
	out := make(map[string]int)
	for k, c := range frequent {
		s := mustParse(k)
		maximal := true
		for k2 := range frequent {
			if k2 == k {
				continue
			}
			if s.ProperSubsetOf(mustParse(k2)) {
				maximal = false
				break
			}
		}
		if maximal {
			out[k] = c
		}
	}
	return out
}

// PatternsToMap converts a pattern slice to a key→support map, failing on
// duplicates via the returned bool.
func PatternsToMap(ps []*dataset.Pattern) (map[string]int, bool) {
	out := make(map[string]int, len(ps))
	for _, p := range ps {
		k := p.Items.Key()
		if _, dup := out[k]; dup {
			return out, false
		}
		out[k] = p.Support()
	}
	return out, true
}

// SameMap reports whether two key→support maps are identical.
func SameMap(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func mustParse(key string) itemset.Itemset {
	s, err := itemset.ParseKey(key)
	if err != nil {
		panic(err)
	}
	return s
}
