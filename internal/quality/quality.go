// Package quality implements the paper's quality evaluation model
// (Section 5): a clustering-style measure of how well a mining result P
// approximates a complete pattern set Q.
//
// Each pattern of Q is assigned to its nearest pattern of P under the
// itemset edit distance Edit(α,β) = |α∪β| − |α∩β| (Definition 8). For each
// cluster i with center αi, the maximum approximation error is
// ri = max_{β∈Qi} Edit(β,αi)/|αi|, and the approximation error of P with
// respect to Q is Δ(A_P^Q) = (Σ ri)/|P| (Definitions 9 and 10). Smaller is
// better; Δ = 0 iff every pattern of Q appears in P.
package quality

import (
	"fmt"

	"repro/internal/itemset"
)

// Cluster is one cell of the approximation partition π_Q: the center
// pattern α_i ∈ P and the patterns of Q assigned to it.
type Cluster struct {
	Center  itemset.Itemset
	Members []itemset.Itemset
	// MaxErr is r_i = max over members of Edit(member, center)/|center|;
	// 0 for an empty cluster.
	MaxErr float64
	// Farthest is the member attaining MaxErr (nil if the cluster is empty).
	Farthest itemset.Itemset
}

// Approximation is the full evaluation A_P^Q of a result set P against a
// complete set Q.
type Approximation struct {
	Clusters []Cluster
	// Delta is the approximation error Δ(A_P^Q) of Definition 10.
	Delta float64
}

// Evaluate computes the approximation of P with respect to Q. Ties in the
// nearest-center search are broken toward the lower index in P, matching
// the deterministic reading of Definition 9. It panics if P is empty while
// Q is not, since the partition is then undefined.
func Evaluate(p, q []itemset.Itemset) *Approximation {
	if len(p) == 0 && len(q) > 0 {
		panic("quality: cannot evaluate an empty result set against a non-empty complete set")
	}
	ap := &Approximation{Clusters: make([]Cluster, len(p))}
	for i := range p {
		ap.Clusters[i].Center = p[i]
	}
	for _, beta := range q {
		best, bestDist := 0, -1
		for i, alpha := range p {
			d := itemset.EditDistance(beta, alpha)
			if bestDist < 0 || d < bestDist {
				best, bestDist = i, d
			}
		}
		c := &ap.Clusters[best]
		c.Members = append(c.Members, beta)
		if len(c.Center) > 0 {
			if e := float64(bestDist) / float64(len(c.Center)); e > c.MaxErr {
				c.MaxErr = e
				c.Farthest = beta
			}
		}
	}
	var sum float64
	for i := range ap.Clusters {
		sum += ap.Clusters[i].MaxErr
	}
	if len(p) > 0 {
		ap.Delta = sum / float64(len(p))
	}
	return ap
}

// Delta is shorthand for Evaluate(p, q).Delta.
func Delta(p, q []itemset.Itemset) float64 {
	if len(q) == 0 {
		return 0
	}
	return Evaluate(p, q).Delta
}

// FilterBySize returns the patterns of q with at least minSize items — the
// "all patterns of size ≥ x" slices of Figure 8.
func FilterBySize(q []itemset.Itemset, minSize int) []itemset.Itemset {
	var out []itemset.Itemset
	for _, s := range q {
		if len(s) >= minSize {
			out = append(out, s)
		}
	}
	return out
}

// Recall returns the fraction of q's patterns that appear exactly in p.
type RecallReport struct {
	Found, Total int
}

// ExactRecall reports how many patterns of q appear verbatim in p.
func ExactRecall(p, q []itemset.Itemset) RecallReport {
	index := make(map[string]bool, len(p))
	for _, s := range p {
		index[s.Key()] = true
	}
	rep := RecallReport{Total: len(q)}
	for _, s := range q {
		if index[s.Key()] {
			rep.Found++
		}
	}
	return rep
}

// String renders the recall as "found/total".
func (r RecallReport) String() string {
	return fmt.Sprintf("%d/%d", r.Found, r.Total)
}
