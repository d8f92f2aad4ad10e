// Command pfgen generates the datasets used in the paper's evaluation —
// plus the classic IBM Quest-style sparse benchmark — and writes them in
// any supported encoding (FIMI by default, CSV or dense binary matrix
// via -format, gzipped when -out ends in .gz) so they can be fed to
// pfmine, pfserve, or any other FIMI-compatible miner. The ingestion
// transform flags (-sample, -rows, -items, -min-item-support) apply to
// the generated dataset before writing, so sharded or sampled variants
// of a workload come straight from the generator.
//
// Usage:
//
//	pfgen -dataset diag -n 40 -out diag40.dat
//	pfgen -dataset diagplus -n 40 -rows-extra 20 -width 39 -out intro.dat
//	pfgen -dataset replace -seed 1 -out replace.dat.gz
//	pfgen -dataset microarray -seed 1 -out all.dat
//	pfgen -dataset random -txns 1000 -universe 50 -density 0.1 -out rnd.dat
//	pfgen -dataset quest -txns 100000 -universe 1000 -out t10i4d100k.dat.gz
//	pfgen -dataset quest -sample 0.1 -format csv -out shard.csv
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/ingest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pfgen: %v\n", err)
		os.Exit(1)
	}
}

// run generates the dataset args describe and writes it to -out, or to
// stdout without one; the dataset's summary goes to stderr. A recipe
// datagen.Spec.Validate rejects is an error, never a panic; a command
// line that does not parse exits 2, as flag.ExitOnError does.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pfgen", flag.ExitOnError)
	fs.SetOutput(stderr)
	var spec datagen.Spec
	fs.StringVar(&spec.Generator, "dataset", "diag", "diag, diagplus, replace, microarray, random, or quest")
	fs.IntVar(&spec.N, "n", 40, "diag/diagplus: matrix size n")
	fs.IntVar(&spec.ExtraRows, "rows-extra", 20, "diagplus: extra identical rows")
	fs.IntVar(&spec.ExtraCols, "width", 39, "diagplus: colossal pattern width")
	fs.IntVar(&spec.Txns, "txns", 1000, "random/quest: number of transactions")
	fs.IntVar(&spec.Items, "universe", 50, "random/quest: item universe size (-items is the shard range)")
	fs.Float64Var(&spec.Density, "density", 0.1, "random: per-item inclusion probability")
	fs.Float64Var(&spec.AvgTxnLen, "avg-txn-len", 10, "quest: mean transaction length T")
	fs.Float64Var(&spec.AvgPatLen, "avg-pat-len", 4, "quest: mean potential-pattern size I")
	fs.IntVar(&spec.Patterns, "patterns", 200, "quest: potential-pattern pool size L")
	fs.Float64Var(&spec.Corr, "corr", 0.5, "quest: correlation between consecutive pool patterns")
	fs.Float64Var(&spec.Corrupt, "corrupt", 0.5, "quest: mean pattern corruption level")
	fs.Uint64Var(&spec.Seed, "seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default: stdout; a .gz suffix gzips)")
	var ing ingest.Flags
	ing.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a command line that does not parse never returns
	if err := spec.Validate(); err != nil {
		return err
	}
	opts, err := ing.Options()
	if err != nil {
		return err
	}
	// -format selects the output encoding; without it the -out extension
	// decides (SniffFormat: .csv → csv, .mat → matrix, else FIMI), so a
	// file named shard.csv actually contains CSV and re-ingests as such.
	if opts.Format == nil {
		opts.Format = ingest.SniffFormat(*out, nil)
	}

	d, planted := spec.Build()
	if planted != nil {
		fmt.Fprintf(stderr, "planted colossal paths: %v\n", planted)
	}
	// Shard/sample/prune the generated dataset with the same pipeline
	// pfmine applies at ingestion (indices refer to generated rows).
	if len(opts.Transforms) > 0 || opts.Remap {
		d, _ = ingest.Apply(d, opts.Remap, opts.Transforms...)
	}
	fmt.Fprintf(stderr, "%s\n", d.ComputeStats())
	return write(d, opts.Format, *out, stdout)
}

// write encodes d to path (stdout when empty), gzipping when the path
// ends in .gz. File writes are atomic (dataset.WriteFileAtomic).
func write(d *dataset.Dataset, format ingest.Format, path string, stdout io.Writer) error {
	if path == "" {
		return format.Encode(stdout, d)
	}
	return dataset.WriteFileAtomic(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".gz") {
			zw := gzip.NewWriter(w)
			if err := format.Encode(zw, d); err != nil {
				return err
			}
			return zw.Close()
		}
		return format.Encode(w, d)
	})
}
