// Diagonal: the paper's motivating example (Section 1).
//
// Diag40 plus 20 identical rows of a fresh 39-item pattern has exactly one
// colossal frequent pattern — but C(40,20) ≈ 1.4×10^11 mid-sized maximal
// patterns hide it. Every exhaustive miner (the paper tried FPClose and
// LCM2; here, this repository's maximal miner) gets trapped in the
// mid-sized plateau; Pattern-Fusion leaps straight to the colossal pattern.
//
// Run with: go run ./examples/diagonal
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	patternfusion "repro"

	"repro/internal/datagen"
)

func main() {
	db := patternfusion.DiagPlus(40, 20, 39)
	colossal := patternfusion.Canonical(datagen.DiagColossal(40, 39))
	fmt.Println("database:", db.ComputeStats())
	fmt.Printf("the only colossal pattern: %d items, support %d\n\n",
		len(colossal), db.SupportCount(colossal))

	// Give the exhaustive miner a 3-second budget — the paper gave
	// FPClose and LCM2 ten hours and they did not finish either.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	t0 := time.Now()
	mres, err := patternfusion.MineWith(ctx, "maximal", db, patternfusion.Options{MinCount: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive maximal miner: stopped=%v after %v, trapped with %d mid-sized patterns\n",
		mres.Stopped, time.Since(t0).Round(time.Millisecond), len(mres.Patterns))

	t0 = time.Now()
	res, err := patternfusion.MineWith(context.Background(), "fusion", db,
		patternfusion.Options{K: 20, MinCount: 20, InitPoolMaxSize: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pattern-Fusion:           finished in %v with %d patterns\n",
		time.Since(t0).Round(time.Millisecond), len(res.Patterns))

	for _, p := range res.Patterns {
		if p.Items.Equal(colossal) {
			fmt.Printf("\n→ colossal pattern found: %v (support %d)\n", p.Items, p.Support())
			return
		}
	}
	fmt.Println("\n→ colossal pattern NOT found (unexpected; try another seed)")
}
