package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rng"
)

// TestIngestAllocationsDoNotGrowWithRows guards the allocation-free
// decode: lines are parsed in place and the canonical rows are carved
// from one array, so ten times the rows over the same item universe may
// cost only a constant number of extra allocations (slice and map
// growth), never one or more per row.
func TestIngestAllocationsDoNotGrowWithRows(t *testing.T) {
	const slack = 16
	fimiOf := func(rows int) []byte {
		var buf bytes.Buffer
		if err := datagen.Random(rng.New(7), rows, 60, 0.2).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	csvOf := func(rows int) []byte {
		var buf bytes.Buffer
		for _, txn := range datagen.Random(rng.New(7), rows, 60, 0.2).Transactions() {
			for i, item := range txn {
				if i > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, "sym%d", item)
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		name   string
		data   func(rows int) []byte
		format func() Format
	}{
		{"fimi", fimiOf, FIMI},
		{"csv", csvOf, func() Format { return NewCSV() }},
	} {
		allocs := func(rows int) float64 {
			data := c.data(rows)
			return testing.AllocsPerRun(5, func() {
				if _, err := FromBytes("alloc-input", data, Options{Format: c.format()}); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1000), allocs(10000)
		t.Logf("%s: %.0f allocs at 1k rows, %.0f at 10k rows", c.name, small, large)
		if large > small+slack {
			t.Errorf("%s: %.0f allocs at 10k rows vs %.0f at 1k rows: more than %d extra, so some allocation is per row",
				c.name, large, small, slack)
		}
	}
}
