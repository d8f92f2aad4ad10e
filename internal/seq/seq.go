// Package seq extends Pattern-Fusion to sequence data — the direction the
// paper closes with ("this paper is an initial effort toward mining
// colossal frequent patterns in more complicated data, such as sequences
// and graphs, where the essential idea developed in this paper could be
// applied", Section 8).
//
// The essential idea carries over unchanged: a pattern's identity is its
// support set, the pattern distance Dist(α,β) = 1 − |Dα∩Dβ|/|Dα∪Dβ| is the
// same metric, τ-core patterns and the r(τ) ball are defined verbatim. What
// changes is the pattern algebra:
//
//   - a pattern is a *subsequence* (order-preserving, gaps allowed);
//   - the "fusion" of patterns sharing a support set cannot be a set union —
//     instead the closure of a support set T is approximated by folding the
//     longest common subsequence (LCS) over the sequences of T. Multi-way
//     LCS is NP-hard in general; the left-to-right fold is the standard
//     heuristic and is exact whenever the common structure is a planted
//     subsequence, which is the colossal-pattern regime this package
//     targets.
//
// The mining loop built on this algebra is the registered "seqfusion"
// engine algorithm (internal/seqfusion); this package holds only the
// algebra.
package seq

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitset"
)

// Sequence is an ordered list of event IDs; repeats are allowed.
type Sequence []int

// String renders the sequence as "<a b c>".
func (s Sequence) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	for i, v := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte('>')
	return sb.String()
}

// Key returns a canonical map key for the sequence.
func (s Sequence) Key() string {
	var sb strings.Builder
	for i, v := range s {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// Equal reports element-wise equality.
func (s Sequence) Equal(t Sequence) bool {
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

// Clone returns an independent copy.
func (s Sequence) Clone() Sequence {
	if s == nil {
		return nil
	}
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// IsSubsequenceOf reports whether s is an order-preserving (gaps allowed)
// subsequence of t. The empty sequence is a subsequence of everything.
func (s Sequence) IsSubsequenceOf(t Sequence) bool {
	i := 0
	for _, v := range t {
		if i < len(s) && s[i] == v {
			i++
		}
	}
	return i == len(s)
}

// LCS returns a longest common subsequence of a and b by dynamic
// programming (O(|a|·|b|) time and space). Among equally long answers the
// one following a's earliest matches is returned, which keeps the fold
// deterministic.
func LCS(a, b Sequence) Sequence {
	return WeightedLCS(a, b, func(int) float64 { return 1 })
}

// WeightedLCS returns a common subsequence of a and b maximizing the total
// weight of its events (plain LCS when all weights are 1). The closure fold
// weights each event by its support within the fold's TID set, so that
// high-support (colossal) events are never traded away for incidental
// low-support alignments — the failure mode of unweighted LCS folding.
func WeightedLCS(a, b Sequence, weight func(event int) float64) Sequence {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	// dp[i][j] = max weight of a common subsequence of a[i:], b[j:].
	dp := make([][]float64, n+1)
	for i := range dp {
		dp[i] = make([]float64, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			best := dp[i+1][j]
			if dp[i][j+1] > best {
				best = dp[i][j+1]
			}
			if a[i] == b[j] {
				if v := dp[i+1][j+1] + weight(a[i]); v > best {
					best = v
				}
			}
			dp[i][j] = best
		}
	}
	var out Sequence
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case a[i] == b[j] && dp[i][j] == dp[i+1][j+1]+weight(a[i]):
			out = append(out, a[i])
			i++
			j++
		case dp[i][j] == dp[i+1][j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Dataset is an immutable collection of sequences with a per-event inverted
// index for fast support-set computation of short patterns.
type Dataset struct {
	seqs      []Sequence
	numEvents int
	eventTIDs []*bitset.Bitset // eventTIDs[e] = sequences containing event e
}

// NewDataset builds a sequence dataset. Event IDs must be non-negative.
func NewDataset(seqs []Sequence) (*Dataset, error) {
	d := &Dataset{seqs: make([]Sequence, len(seqs))}
	maxEvent := -1
	for i, s := range seqs {
		for _, e := range s {
			if e < 0 {
				return nil, fmt.Errorf("seq: sequence %d has negative event %d", i, e)
			}
			if e > maxEvent {
				maxEvent = e
			}
		}
		d.seqs[i] = s.Clone()
	}
	d.numEvents = maxEvent + 1
	d.eventTIDs = make([]*bitset.Bitset, d.numEvents)
	for e := range d.eventTIDs {
		d.eventTIDs[e] = bitset.New(len(seqs))
	}
	for tid, s := range d.seqs {
		for _, e := range s {
			d.eventTIDs[e].Set(tid)
		}
	}
	return d, nil
}

// MustNewDataset is NewDataset but panics on error.
func MustNewDataset(seqs []Sequence) *Dataset {
	d, err := NewDataset(seqs)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns the number of sequences.
func (d *Dataset) Size() int { return len(d.seqs) }

// NumEvents returns the event universe size.
func (d *Dataset) NumEvents() int { return d.numEvents }

// Seq returns sequence tid.
func (d *Dataset) Seq(tid int) Sequence { return d.seqs[tid] }

// EventTIDs returns the support set of the single event e — the
// inverted-index row, shared with the Dataset; callers must not modify
// it. Events outside the universe have an empty support set.
func (d *Dataset) EventTIDs(e int) *bitset.Bitset {
	if e < 0 || e >= d.numEvents {
		return bitset.New(len(d.seqs))
	}
	return d.eventTIDs[e]
}

// TIDSet returns the support set of pattern p: the sequences containing p
// as a subsequence. The per-event index prunes the candidates; each
// survivor is verified with the order-preserving containment test.
func (d *Dataset) TIDSet(p Sequence) *bitset.Bitset {
	out := bitset.New(len(d.seqs))
	if len(p) == 0 {
		out.SetAll()
		return out
	}
	cand := bitset.New(len(d.seqs))
	cand.SetAll()
	for _, e := range p {
		if e >= d.numEvents {
			return out
		}
		cand.InPlaceAnd(d.eventTIDs[e])
	}
	cand.ForEach(func(tid int) {
		if p.IsSubsequenceOf(d.seqs[tid]) {
			out.Set(tid)
		}
	})
	return out
}

// SupportCount returns |D_p|.
func (d *Dataset) SupportCount(p Sequence) int { return d.TIDSet(p).Count() }

// FoldClosure approximates the closure of a support set: the heaviest
// sequence common to every sequence in tids, computed by folding the
// weighted LCS left to right with each event weighted by its support
// within tids. It returns nil for an empty tids.
func (d *Dataset) FoldClosure(tids *bitset.Bitset) Sequence {
	first := tids.NextSet(0)
	if first < 0 {
		return nil
	}
	weight := func(e int) float64 { return float64(d.eventTIDs[e].AndCount(tids)) }
	acc := d.seqs[first].Clone()
	for tid := tids.NextSet(first + 1); tid >= 0 && len(acc) > 0; tid = tids.NextSet(tid + 1) {
		acc = WeightedLCS(acc, d.seqs[tid], weight)
	}
	return acc
}

// Pattern is a subsequence pattern with its support set.
type Pattern struct {
	Seq  Sequence
	TIDs *bitset.Bitset
}

// Support returns |D_p|.
func (p *Pattern) Support() int { return p.TIDs.Count() }

// String renders the pattern as "<...>:support".
func (p *Pattern) String() string { return fmt.Sprintf("%v:%d", p.Seq, p.Support()) }
