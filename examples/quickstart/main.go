// Quickstart: mine colossal frequent patterns from an in-memory transaction
// database with Pattern-Fusion, and sanity-check the result against an
// exact miner (feasible here because the toy database is small).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	patternfusion "repro"
)

func main() {
	// A toy retail-basket database: 9 distinct products. Baskets 100-109
	// are "big shoppers" sharing the colossal 6-item pattern {0..5};
	// the rest are small baskets over products 6-8.
	var transactions [][]int
	for i := 0; i < 10; i++ {
		transactions = append(transactions, []int{0, 1, 2, 3, 4, 5})
	}
	for i := 0; i < 20; i++ {
		transactions = append(transactions, []int{6, 7})
		transactions = append(transactions, []int{7, 8})
	}

	db, err := patternfusion.New(transactions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("database:", db.ComputeStats())

	// Mine at most K=3 patterns at 15% minimum support.
	res, err := patternfusion.MineWith(context.Background(), "fusion", db,
		patternfusion.Options{K: 3, MinSupport: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPattern-Fusion result (largest first):")
	for _, p := range res.Patterns {
		fmt.Printf("  %v  support=%d  size=%d\n", p.Items, p.Support(), p.Size())
	}

	// The database is tiny, so the exact closed miner can verify that the
	// colossal pattern is real and that nothing bigger was missed.
	closed, err := patternfusion.MineWith(context.Background(), "closed", db,
		patternfusion.Options{MinSupport: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	biggest := 0
	for _, p := range closed.Patterns {
		if p.Size() > biggest {
			biggest = p.Size()
		}
	}
	fmt.Printf("\nexact check: largest closed pattern has size %d; Pattern-Fusion's largest: %d\n",
		biggest, res.Patterns[0].Size())

	// The quality evaluation model (Section 5 of the paper) quantifies how
	// well the 3-pattern result represents the full closed set.
	delta := patternfusion.Delta(patternfusion.Itemsets(res.Patterns), patternfusion.Itemsets(closed.Patterns))
	fmt.Printf("approximation error Δ(A_P^Q) against the complete closed set: %.4f\n", delta)
}
