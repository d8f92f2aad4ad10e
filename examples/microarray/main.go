// Microarray: the paper's bioinformatics scenario (Section 6, ALL).
//
// Gene-expression datasets are "long": very few samples (38 patients) and
// very many items (1,736 discretized gene activity levels, 866 per
// sample). Colossal frequent patterns are large groups of co-expressed
// genes shared by most samples — diagnostically meaningful signatures.
// The complete frequent set is astronomically large, but a CARPENTER-style
// row-enumeration miner can still compute the complete *colossal closed*
// set (size ≥ 70) as ground truth, because row intersections only shrink.
//
// This example mines the ALL simulator with Pattern-Fusion and scores the
// result against that ground truth, reproducing the Figure 9 comparison.
//
// Run with: go run ./examples/microarray
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	patternfusion "repro"
)

func main() {
	db := patternfusion.MicroarraySim(1)
	fmt.Println("microarray database:", db.ComputeStats())

	const (
		minCount = 30 // paper: minimum support count 30 of 38 samples
		minSize  = 70 // paper: colossal means size > 70 here
		k        = 100
	)

	// Ground truth: the complete set of closed patterns of size ≥ 70,
	// computable by row enumeration even though the full frequent set is
	// hopeless.
	t0 := time.Now()
	complete, err := patternfusion.MineWith(context.Background(), "closedrows", db,
		patternfusion.Options{MinCount: minCount, MinSize: minSize})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: %d colossal closed patterns (size ≥ %d) in %v\n",
		len(complete.Patterns), minSize, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	res, err := patternfusion.MineWith(context.Background(), "fusion", db,
		patternfusion.Options{K: k, MinCount: minCount, InitPoolMaxSize: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pattern-Fusion: %d patterns from a pool of %d in %v\n\n",
		len(res.Patterns), res.InitPoolSize, time.Since(t0).Round(time.Millisecond))

	// Per-size comparison (the Figure 9 table).
	found := make(map[string]bool, len(res.Patterns))
	for _, p := range res.Patterns {
		found[p.Items.Key()] = true
	}
	type row struct{ size, complete, fusion int }
	bySize := map[int]*row{}
	for _, p := range complete.Patterns {
		r, ok := bySize[p.Size()]
		if !ok {
			r = &row{size: p.Size()}
			bySize[p.Size()] = r
		}
		r.complete++
		if found[p.Items.Key()] {
			r.fusion++
		}
	}
	var rows []*row
	for _, r := range bySize {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].size > rows[j].size })
	fmt.Println("gene-signature size   complete set   Pattern-Fusion")
	total, hit := 0, 0
	for _, r := range rows {
		fmt.Printf("%19d   %12d   %14d\n", r.size, r.complete, r.fusion)
		total += r.complete
		hit += r.fusion
	}
	fmt.Printf("\nrecovered %d of %d colossal co-expression signatures\n", hit, total)
}
