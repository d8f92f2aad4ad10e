// Command benchdiff compares two benchmark JSON artifacts produced by
// scripts/bench.sh and prints a benchstat-style delta table. It is the
// CI bench-record job's report-only regression radar: a fresh run is
// diffed against the checked-in baseline so allocation or time
// regressions are visible in the job log the moment they land, without
// making a noisy single-run timing gate the arbiter of a merge.
//
// Usage:
//
//	go run ./scripts/benchdiff old.json new.json
//
// Benchmarks are matched by name, less the "-N" GOMAXPROCS suffix go test
// appends on multi-CPU machines, so a baseline recorded on one core count
// still matches a run on another; entries present in only one file are
// listed separately. Deltas beyond ±10% on bytes/op or allocs/op — the
// metrics that are stable across runners, unlike wall time — are flagged
// with a trailing marker and tallied in the summary line. The exit
// status is always 0 on a successful diff (report-only by design; exit 2
// is reserved for unreadable/invalid input files).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchFile mirrors the JSON scripts/bench.sh assembles.
type benchFile struct {
	Benchtime  string      `json:"benchtime"`
	Go         string      `json:"go"`
	CPU        string      `json:"cpu"`
	Benchmarks []benchLine `json:"benchmarks"`
}

// benchLine is one recorded benchmark result.
type benchLine struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// regressionThreshold is the relative change on bytes/op or allocs/op
// beyond which a row is flagged. Allocation counts are deterministic for
// this repo's benchmarks, so 10% is signal, not noise.
const regressionThreshold = 0.10

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.json new.json")
		os.Exit(2)
	}
	oldF, newF := load(os.Args[1]), load(os.Args[2])
	if oldF.CPU != newF.CPU || oldF.Benchtime != newF.Benchtime {
		fmt.Printf("note: environments differ (old: %s @ %s, new: %s @ %s); time deltas are not comparable\n\n",
			oldF.Benchtime, oldF.CPU, newF.Benchtime, newF.CPU)
	}

	oldBy := make(map[string]benchLine, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := make(map[string]benchLine, len(newF.Benchmarks))
	for _, b := range newF.Benchmarks {
		newBy[b.Name] = b
	}

	fmt.Printf("%-45s %14s %14s %14s\n", "benchmark", "time/op", "bytes/op", "allocs/op")
	regressions, improvements := 0, 0
	for _, o := range oldF.Benchmarks {
		n, ok := newBy[o.Name]
		if !ok {
			continue
		}
		flag := ""
		if delta(o.BytesPerOp, n.BytesPerOp) > regressionThreshold ||
			delta(o.AllocsPerOp, n.AllocsPerOp) > regressionThreshold {
			flag = "  REGRESSION"
			regressions++
		} else if delta(o.BytesPerOp, n.BytesPerOp) < -regressionThreshold ||
			delta(o.AllocsPerOp, n.AllocsPerOp) < -regressionThreshold {
			flag = "  improved"
			improvements++
		}
		fmt.Printf("%-45s %14s %14s %14s%s\n", o.Name,
			pct(delta(o.NsPerOp, n.NsPerOp)),
			pct(delta(o.BytesPerOp, n.BytesPerOp)),
			pct(delta(o.AllocsPerOp, n.AllocsPerOp)), flag)
	}
	for _, o := range oldF.Benchmarks {
		if _, ok := newBy[o.Name]; !ok {
			fmt.Printf("%-45s only in %s\n", o.Name, os.Args[1])
		}
	}
	for _, n := range newF.Benchmarks {
		if _, ok := oldBy[n.Name]; !ok {
			fmt.Printf("%-45s only in %s\n", n.Name, os.Args[2])
		}
	}
	fmt.Printf("\n%d allocation regression(s) beyond %.0f%%, %d improvement(s) (report-only; not a gate)\n",
		regressions, regressionThreshold*100, improvements)
}

// load reads and decodes one benchmark artifact, rejecting unknown
// top-level shapes loudly rather than diffing garbage.
func load(path string) benchFile {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: no benchmarks\n", path)
		os.Exit(2)
	}
	for i := range f.Benchmarks {
		f.Benchmarks[i].Name = trimProcs(f.Benchmarks[i].Name)
	}
	return f
}

// trimProcs drops a trailing "-N" GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// delta returns the relative change from old to new (+0.25 = 25% more).
// A zero old value with a nonzero new value reads as +100%.
func delta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

// pct renders a relative change as a signed percentage.
func pct(d float64) string {
	return fmt.Sprintf("%+.1f%%", d*100)
}
