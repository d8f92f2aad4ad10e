// Tracelog: the paper's software-engineering scenario (Section 6, Replace).
//
// Program executions are recorded as transactions of call/transition events.
// Frequent colossal patterns correspond to complete normal execution
// structures; an analyst compares them against failing runs to localize
// bugs. The full closed set has thousands of patterns — the three colossal
// size-44 execution paths are the needles.
//
// This example generates the Replace simulator dataset, runs Pattern-Fusion
// with the paper's parameters (σ = 0.03, K = 100, τ = 0.5), and verifies
// that all three planted colossal paths are recovered.
//
// Run with: go run ./examples/tracelog
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	patternfusion "repro"
)

func main() {
	db, plantedPaths := patternfusion.ReplaceSim(1)
	fmt.Println("trace database:", db.ComputeStats())
	fmt.Printf("planted: %d colossal execution paths of size %d\n\n",
		len(plantedPaths), len(plantedPaths[0]))

	t0 := time.Now()
	res, err := patternfusion.MineWith(context.Background(), "fusion", db,
		patternfusion.Options{K: 100, MinSupport: 0.03})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pattern-Fusion: %d patterns from an initial pool of %d in %v\n",
		len(res.Patterns), res.InitPoolSize, time.Since(t0).Round(time.Millisecond))

	found := make(map[string]bool)
	for _, p := range res.Patterns {
		found[p.Items.Key()] = true
	}
	for i, path := range plantedPaths {
		status := "MISSED"
		if found[path.Key()] {
			status = "recovered"
		}
		fmt.Printf("  colossal path %d (size %d, support %d): %s\n",
			i+1, len(path), db.SupportCount(path), status)
	}

	fmt.Println("\nlargest mined patterns:")
	for _, p := range res.Patterns[:5] {
		fmt.Printf("  size=%d support=%d  %v\n", p.Size(), p.Support(), p.Items)
	}
}
