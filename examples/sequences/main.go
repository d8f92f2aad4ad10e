// Sequences: the paper's future-work direction (Section 8) — applying the
// core-pattern-fusion idea beyond itemsets.
//
// The scenario: clickstream sessions, each an ordered sequence of page
// events. 40% of sessions follow a long "checkout funnel" of 14 steps with
// unrelated browsing interleaved; the rest are random browsing. The funnel
// is a colossal *subsequence* pattern: order matters and gaps are allowed,
// so itemset miners cannot express it, and exhaustive sequential-pattern
// miners face the same mid-sized explosion as their itemset cousins.
//
// Pattern-Fusion transfers directly because a pattern's identity is its
// support set: the metric, the τ-core balls, and the fusion loop are
// unchanged; only the closure operation becomes a weighted-LCS fold.
//
// Run with: go run ./examples/sequences
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	patternfusion "repro"

	"repro/internal/rng"
)

func main() {
	const (
		sessions  = 400
		funnelLen = 14
		noiseBase = 100 // noise event IDs start here
		noiseKind = 60
	)
	funnel := make(patternfusion.Sequence, funnelLen)
	for i := range funnel {
		funnel[i] = i
	}

	r := rng.New(2)
	var clickstreams []patternfusion.Sequence
	for i := 0; i < sessions; i++ {
		var s patternfusion.Sequence
		if r.Float64() < 0.4 {
			// A funnel session: every step in order, browsing in between.
			for _, step := range funnel {
				for k := r.Intn(3); k > 0; k-- {
					s = append(s, noiseBase+r.Intn(noiseKind))
				}
				s = append(s, step)
			}
		} else {
			for j := 5 + r.Intn(15); j > 0; j-- {
				s = append(s, noiseBase+r.Intn(noiseKind))
			}
		}
		clickstreams = append(clickstreams, s)
	}

	// The miner reads the ordered view attached to an ordinary Dataset —
	// what a "seq"-format ingestion delivers.
	rows := make([][]int, len(clickstreams))
	for i, s := range clickstreams {
		rows[i] = s
	}
	db, err := patternfusion.New(rows)
	if err != nil {
		log.Fatal(err)
	}
	db.SetSequences(rows)

	// The subsequence algebra counts the funnel's true support.
	support := 0
	for _, s := range clickstreams {
		if funnel.IsSubsequenceOf(s) {
			support++
		}
	}
	fmt.Printf("clickstream database: %d sessions, %d event types\n", db.Size(), db.NumItems())
	fmt.Printf("planted funnel: %v (support %d)\n\n", funnel, support)

	t0 := time.Now()
	rep, err := patternfusion.MineWith(context.Background(), patternfusion.SeqFusion, db,
		patternfusion.Options{K: 8, MinCount: 100})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequence Pattern-Fusion: %d patterns from a pool of %d in %v\n",
		len(rep.Patterns), rep.InitPoolSize, time.Since(t0).Round(time.Millisecond))
	if rep.Quality != nil {
		fmt.Printf("approximation error Δ against the pool: %.4f\n", rep.Quality.Delta)
	}

	for _, p := range rep.Patterns {
		s := patternfusion.Sequence(p.Items)
		marker := ""
		if s.Equal(funnel) {
			marker = "   ← the colossal checkout funnel"
		}
		fmt.Printf("  len=%2d support=%3d  %v%s\n", len(s), p.Support(), s, marker)
	}
}
