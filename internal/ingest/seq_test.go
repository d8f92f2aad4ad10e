package ingest

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	_ "repro/internal/engine/all"
)

// TestSeqSniffedByExtension pins the sniffing rule: the sequence grammar
// is valid FIMI (and vice versa), so "seq" is chosen by file extension
// only — never by content.
func TestSeqSniffedByExtension(t *testing.T) {
	res, err := FromBytes("trace.seq", []byte("2 1 2\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != "seq" {
		t.Fatalf("trace.seq sniffed as %q, want seq", res.Format)
	}
	res, err = FromBytes("trace.dat", []byte("2 1 2\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != "fimi" {
		t.Fatalf("trace.dat sniffed as %q, want fimi", res.Format)
	}
	if res.Dataset.Sequences() != nil {
		t.Fatal("FIMI ingestion attached an ordered view")
	}
}

// TestSeqPreservesOrderAndRepeats pins the dual representation a
// sequence ingestion delivers: canonical transactions for the itemset
// miners, plus the ordered view (source order, repeats kept) for the
// sequence miner — and an Encode that writes the ordered rows back.
func TestSeqPreservesOrderAndRepeats(t *testing.T) {
	src := "# trace\n2 1 2\n\n0 3\n"
	res, err := FromBytes("trace.seq", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dataset
	wantRows := [][]int{{2, 1, 2}, {}, {0, 3}}
	rows := d.Sequences()
	if rows == nil {
		t.Fatal("seq ingestion attached no ordered view")
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantRows))
	}
	for i, want := range wantRows {
		if len(rows[i]) != len(want) {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want)
		}
		for j := range want {
			if rows[i][j] != want[j] {
				t.Fatalf("row %d = %v, want %v", i, rows[i], want)
			}
		}
	}
	// The itemset view is canonical: sorted, deduplicated.
	if txn := d.Transaction(0); len(txn) != 2 || txn[0] != 1 || txn[1] != 2 {
		t.Fatalf("transaction 0 = %v, want [1 2]", d.Transaction(0))
	}
	var buf bytes.Buffer
	if err := Seq().Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "2 1 2\n\n0 3\n"; got != want {
		t.Fatalf("encode = %q, want %q", got, want)
	}
}

// TestSeqRemapReportPreservesOrder pins the remap round trip for the
// sequence miner: mining a frequency-remapped sequence dataset and
// translating the report back must keep each pattern's event order —
// its engine.Ranged.Ordered declaration suppresses the itemset re-canonicalization
// that would corrupt a non-ascending sequence like <5 3>.
func TestSeqRemapReportPreservesOrder(t *testing.T) {
	src := "5 3 5\n5 3 5\n5 3\n"
	res, err := FromBytes("trace.seq", []byte(src), Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping == nil {
		t.Fatal("remap ingestion produced no mapping")
	}
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Mine(context.Background(), res.Dataset, engine.Options{MinCount: 2, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	back := RemapReport(rep, res.Mapping)
	if len(back.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	found := false
	for _, p := range back.Patterns {
		if len(p.Items) >= 2 && p.Items[0] == 5 && p.Items[1] == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no translated pattern starts <5 3>; got %v", back.Patterns)
	}
}
