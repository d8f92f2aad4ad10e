// Command pfexp regenerates every experiment of the paper: the motivating
// example of Section 1, the core-pattern table of Figure 3, the worked
// quality-model example of Figure 5 / Example 1, the evaluation's
// Figures 6–10, and the ablations. Each prints as one table; -csv also
// writes each table as CSV.
//
// Usage:
//
//	pfexp -fig all                # run everything
//	pfexp -fig 6 -budget 5s      # one figure, custom exact-miner budget
//	pfexp -fig intro -seed 7
//
// The "data" figure runs the Section 1 comparison (exact maximal miner
// under a budget vs Pattern-Fusion) on a dataset you bring: any format
// pfmine accepts, through the same ingestion flags.
//
//	pfexp -fig data -data baskets.csv.gz -minsup 0.05
//	pfexp -fig data -data huge.dat.gz -sample 0.05 -min-item-support 20
//
// Absolute timings differ from the paper's 2007 hardware; the reproduced
// quantities are the shapes: who wins, exponential-vs-flat curves, and the
// error orderings. PAPER_MAP.md maps each experiment to the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	_ "repro/internal/engine/all"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/profiling"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: intro, 3, 5, 6, 7, 8, 9, 10, ablation, data, or all (data needs -data)")
	budget := flag.Duration("budget", 2*time.Second, "per-point time budget for exact miners")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("parallelism", runtime.GOMAXPROCS(0), "experiment cells and fusion workers run concurrently (results are identical for any value; use 1 for contention-free per-cell timings)")
	cpuprof := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprof := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	dataPath := flag.String("data", "", "dataset file for -fig data (fimi/csv/matrix, gzip auto-detected)")
	minsup := flag.Float64("minsup", 0.1, "-fig data: relative minimum support")
	k := flag.Int("k", 20, "-fig data: Pattern-Fusion K")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
	var ing ingest.Flags
	ing.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles := profiling.Start(*cpuprof, *memprof)
	defer stopProfiles()
	if err := run(*fig, *csvDir, *dataPath, &ing, experiments.Config{
		Budget: *budget, Seed: *seed, Parallelism: *par, MinSupport: *minsup, K: *k,
	}); err != nil {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "pfexp: %v\n", err)
		os.Exit(1)
	}
}

// run prints the table of the named experiment, or of every experiment
// but "data" for "all", and writes each as CSV into csvDir when set.
func run(fig, csvDir, dataPath string, ing *ingest.Flags, cfg experiments.Config) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	if fig == "data" && dataPath != "" {
		res, err := ing.Load(dataPath)
		if err != nil {
			return err
		}
		cfg.Data = res
	}
	ran := false
	for _, e := range experiments.All {
		if fig != e.Name && (fig != "all" || e.Name == "data") {
			continue
		}
		ran = true
		fmt.Printf("=== %s ===\n", e.Title)
		t, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, e.CSV), t); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown -fig %q", fig)
	}
	return nil
}

func writeCSV(path string, t *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
