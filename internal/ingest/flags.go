package ingest

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Flags is the shared ingestion CLI surface of pfmine, pfexp and pfgen:
// format selection plus the deterministic transform pipeline. Register
// it on a FlagSet, then build Options (or load directly) after parsing.
type Flags struct {
	// Format is the -format value ("" = sniff).
	Format string
	// Transform is the spec -sample, -sample-seed, -rows, -items and
	// -min-item-support fill.
	Transform TransformSpec
	// Remap is the -remap frequency-reorder toggle.
	Remap bool
}

// Register installs the ingestion flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Format, "format", "", "input format: fimi, csv, matrix, or seq (default: sniff by extension/content; gzip always auto-detected)")
	fs.Float64Var(&f.Transform.Sample, "sample", 0, "keep each row independently with this probability in [0,1] (0 and 1 keep every row); deterministic per -sample-seed")
	fs.Uint64Var(&f.Transform.SampleSeed, "sample-seed", 1, "seed of the deterministic row-sampling stream")
	fs.IntVar(&f.Transform.MinItemSupport, "min-item-support", 0, "drop items occurring in fewer than this many kept rows")
	fs.Func("rows", `keep only the half-open row range "lo:hi" (horizontal shard; empty bound = open end)`, rangeFlag(&f.Transform.RowLo, &f.Transform.RowHi))
	fs.Func("items", `keep only the half-open item-ID range "lo:hi" (vertical shard; empty bound = open end)`, rangeFlag(&f.Transform.ItemLo, &f.Transform.ItemHi))
	fs.BoolVar(&f.Remap, "remap", false, "renumber items in decreasing frequency order (pattern output is translated back to source IDs)")
}

// Options resolves the parsed flags into ingestion Options; the
// transform pipeline is the Transform spec's, checked by its Validate.
func (f *Flags) Options() (Options, error) {
	var opts Options
	if f.Format != "" {
		format, err := FormatByName(f.Format)
		if err != nil {
			return opts, err
		}
		opts.Format = format
	}
	if err := f.Transform.Validate(); err != nil {
		return opts, err
	}
	opts.Transforms = f.Transform.Transforms()
	opts.Remap = f.Remap
	return opts, nil
}

// Load ingests the named file under the parsed flags.
func (f *Flags) Load(path string) (*Result, error) {
	opts, err := f.Options()
	if err != nil {
		return nil, err
	}
	return Load(path, opts)
}

// rangeFlag parses a "lo:hi" flag value into *lo and *hi, either side
// optional: "5:", ":9", "2:9". An empty bound is the open end (lo 0,
// hi 0 = unbounded), so an explicit hi of 0 is rejected as the empty
// range it names; TransformSpec.Validate checks the rest.
func rangeFlag(lo, hi *int) func(string) error {
	return func(s string) (err error) {
		before, after, ok := strings.Cut(s, ":")
		if !ok {
			return fmt.Errorf(`want "lo:hi"`)
		}
		*lo, *hi = 0, 0
		if before != "" {
			if *lo, err = strconv.Atoi(before); err != nil {
				return fmt.Errorf("bad lower bound %q", before)
			}
		}
		if after != "" {
			if *hi, err = strconv.Atoi(after); err != nil {
				return fmt.Errorf("bad upper bound %q", after)
			}
			if *hi == 0 {
				return fmt.Errorf("empty range [%d:0)", *lo)
			}
		}
		return nil
	}
}
