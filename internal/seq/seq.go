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
// engine algorithm (internal/seqfusion), whose support sets are the
// dataset's own item columns; this package holds only the algebra and
// imports nothing else from the module.
package seq

import (
	"strconv"
	"strings"
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
