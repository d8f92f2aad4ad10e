package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/rng"
)

// datasetsEqual reports whether two datasets have identical transactions,
// universe, and (for sequential formats) ordered views.
func datasetsEqual(a, b *dataset.Dataset) bool {
	if a.Size() != b.Size() || a.NumItems() != b.NumItems() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if !a.Transaction(i).Equal(b.Transaction(i)) {
			return false
		}
	}
	as, bs := a.Sequences(), b.Sequences()
	if (as == nil) != (bs == nil) {
		return false
	}
	for i := range as {
		if len(as[i]) != len(bs[i]) {
			return false
		}
		for j := range as[i] {
			if as[i][j] != bs[i][j] {
				return false
			}
		}
	}
	return true
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamingFIMIMatchesInMemoryRead(t *testing.T) {
	// Exercises the grammar corners both parsers must agree on:
	// comments (including indented ones — '#' is checked after
	// trimming), blank lines as empty transactions, duplicate items,
	// and leading/trailing whitespace.
	src := "# header comment\n3 1 2\n\n7 7 5\n \t# indented comment\n  0 \n"
	want, err := dataset.Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"plain": []byte(src),
		"gzip":  gzipBytes(t, []byte(src)),
	} {
		res, err := FromBytes("txns.dat", data, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Format != "fimi" {
			t.Fatalf("%s: sniffed format %q, want fimi", name, res.Format)
		}
		if res.Gzipped != (name == "gzip") {
			t.Fatalf("%s: Gzipped=%v", name, res.Gzipped)
		}
		if !datasetsEqual(res.Dataset, want) {
			t.Fatalf("%s: streaming dataset differs from dataset.Read", name)
		}
		if res.RowsRead != 4 || res.RowsKept != 4 {
			t.Fatalf("%s: rows read/kept = %d/%d, want 4/4 (blank line included)", name, res.RowsRead, res.RowsKept)
		}
	}
}

func TestStreamingMatchesInMemoryOnGeneratedData(t *testing.T) {
	d := datagen.Random(rng.New(3), 200, 40, 0.15)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := FromBytes("random.dat", buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(res.Dataset, d) {
		t.Fatal("streaming ingestion of a written dataset does not round-trip")
	}
	// Same content, same hash — the catalog cache key.
	res2, err := FromBytes("other-name.dat", buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SHA256 == "" || res.SHA256 != res2.SHA256 {
		t.Fatalf("content hash unstable: %q vs %q", res.SHA256, res2.SHA256)
	}
	if gz, err := FromBytes("random.dat.gz", gzipBytes(t, buf.Bytes()), Options{}); err != nil {
		t.Fatal(err)
	} else if gz.SHA256 == res.SHA256 {
		t.Fatal("gzip and plain content must hash differently (hash covers raw bytes)")
	}
}

func TestCSVSymbolsAndParsing(t *testing.T) {
	src := "# basket file\nmilk, bread,eggs\n\nbread,milk\nbeer\n"
	res, err := FromBytes("basket.csv", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != "csv" {
		t.Fatalf("format %q, want csv", res.Format)
	}
	d := res.Dataset
	if d.Size() != 4 {
		t.Fatalf("got %d transactions, want 4 (blank line is an empty transaction)", d.Size())
	}
	if res.Symbols == nil || res.Symbols.Len() != 4 {
		t.Fatalf("symbol table: %v", res.Symbols)
	}
	for want, sym := range []string{"milk", "bread", "eggs", "beer"} {
		if got := res.Symbols.Intern(sym); got != want {
			t.Fatalf("symbol %q interned as %d, want %d", sym, got, want)
		}
	}
	if !d.Transaction(0).Equal([]int{0, 1, 2}) || len(d.Transaction(1)) != 0 ||
		!d.Transaction(2).Equal([]int{0, 1}) || !d.Transaction(3).Equal([]int{3}) {
		t.Fatalf("unexpected transactions: %v", d.Transactions())
	}
}

func TestMatrixParsing(t *testing.T) {
	src := "# matrix\n0 1 1\n101\n\n000\n"
	res, err := FromBytes("grid.mat", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Format != "matrix" {
		t.Fatalf("format %q, want matrix", res.Format)
	}
	d := res.Dataset
	if d.Size() != 4 {
		t.Fatalf("got %d rows, want 4", d.Size())
	}
	if !d.Transaction(0).Equal([]int{1, 2}) || !d.Transaction(1).Equal([]int{0, 2}) ||
		len(d.Transaction(2)) != 0 || len(d.Transaction(3)) != 0 {
		t.Fatalf("unexpected transactions: %v", d.Transactions())
	}
	if _, err := FromBytes("bad.mat", []byte("012\n"), Options{}); err == nil {
		t.Fatal("matrix cell '2' must be rejected")
	}
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		name string
		head string
		want string
	}{
		{"data.csv", "", "csv"},
		{"data.basket.gz", "", "csv"},
		{"data.mat", "", "matrix"},
		{"data.dat", "", "fimi"},
		{"data.fimi.gz", "", "fimi"},
		{"upload", "# c\n1 2 3\n", "fimi"},
		{"upload", "milk,bread\n", "csv"},
		{"upload", "milk bread\n", "csv"},
		{"upload", "", "fimi"},
	}
	for _, c := range cases {
		if got := SniffFormat(c.name, []byte(c.head)).Name(); got != c.want {
			t.Errorf("SniffFormat(%q, %q) = %s, want %s", c.name, c.head, got, c.want)
		}
	}
}

// TestDecodeErrorsCarryLineNumbers pins the exact text of every decode
// error the streaming formats and the Appender report: the line or row
// number, the quoted offending token, and the wrapped strconv cause.
// Callers and pfserve's 400 bodies surface these strings verbatim.
func TestDecodeErrorsCarryLineNumbers(t *testing.T) {
	overlong := string(append(bytes.Repeat([]byte("1 "), MaxLineBytes/2+1), '\n'))
	csv := func() Format { return NewCSV() }
	for _, c := range []struct {
		name, data string
		format     func() Format
		maxItem    int
		want       string
	}{
		{"bad.dat", "1 2\nx 3\n", FIMI, 0,
			`ingest: bad.dat: line 2: bad item "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"bad.dat", "1 2\n3 1#\n", FIMI, 0,
			`ingest: bad.dat: line 2: bad item "1#": strconv.Atoi: parsing "1#": invalid syntax`},
		{"bad.dat", "1 2\n\n3 -4\n", FIMI, 0,
			`ingest: bad.dat: line 3: negative item -4`},
		{"bad.dat", "# c\n1 99999999999999999999\n", FIMI, 0,
			`ingest: bad.dat: line 2: bad item "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"bad.dat", "1 x\n", FIMI, 0,
			`ingest: bad.dat: line 1: bad item "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"bad.dat", "2\n1\u00a0x\n", FIMI, 0,
			`ingest: bad.dat: line 2: bad item "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"bad.dat", "2\n1\xff\n", FIMI, 0,
			`ingest: bad.dat: line 2: bad item "1\xff": strconv.Atoi: parsing "1\xff": invalid syntax`},
		{"bad.dat", "1\n70000\n", FIMI, 1 << 16,
			`ingest: bad.dat: row 1: item 70000 exceeds the 65536 item-ID cap`},
		{"bad.dat", "0\n1\n" + overlong, FIMI, 0,
			`ingest: bad.dat: line 3: line exceeds the 16777216-byte limit: bufio.Scanner: token too long`},
		{"bad.seq", "2 1\n1 +x\n", Seq, 0,
			`ingest: bad.seq: line 2: bad item "+x": strconv.Atoi: parsing "+x": invalid syntax`},
		{"bad.mat", "011\n# c\n0 2\n", Matrix, 0,
			`ingest: bad.mat: line 3: matrix cell "2" is not 0 or 1`},
		{"bad.mat", "01\n1\xc3\n", Matrix, 0,
			`ingest: bad.mat: line 2: matrix cell "Ã" is not 0 or 1`},
		{"bad.csv", "a,b\n" + overlong, csv, 0,
			`ingest: bad.csv: line 2: line exceeds the 16777216-byte limit: bufio.Scanner: token too long`},
	} {
		_, err := FromBytes(c.name, []byte(c.data), Options{Format: c.format(), MaxItem: c.maxItem})
		if err == nil || err.Error() != c.want {
			label := c.data
			if len(label) > 64 {
				label = label[:64] + "..."
			}
			t.Errorf("FromBytes(%s, %q):\n got %v\nwant %s", c.name, label, err, c.want)
		}
	}

	app, err := NewAppender(BytesSource("base.dat", []byte("1 2\n")), Options{Format: FIMI(), MaxItem: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ chunk, want string }{
		{"3\n4 x\n", `ingest: append base.dat: line 2: bad item "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"3\n4 70000\n", `ingest: append base.dat: row 2: item 70000 exceeds the 65536 item-ID cap`},
	} {
		if _, err := app.Append([]byte(c.chunk)); err == nil || err.Error() != c.want {
			t.Errorf("Append(%q):\n got %v\nwant %s", c.chunk, err, c.want)
		}
	}
}

func TestMaxItemCap(t *testing.T) {
	if _, err := FromBytes("big.dat", []byte("999999999999\n"), Options{}); err == nil ||
		!strings.Contains(err.Error(), "item-ID cap") {
		t.Fatalf("huge item must hit the cap, got %v", err)
	}
	if _, err := FromBytes("big.dat", []byte("70000\n"), Options{MaxItem: 1 << 20}); err != nil {
		t.Fatalf("70000 under a 1M cap must parse: %v", err)
	}
}

// TestStreamingTransformsMatchApply pins the central pipeline contract:
// ingesting a serialized dataset through the streaming builder with a
// transform chain yields exactly Apply(d, ...) of the in-memory dataset,
// for every combination of transforms, with and without remap.
func TestStreamingTransformsMatchApply(t *testing.T) {
	d := datagen.Random(rng.New(11), 300, 60, 0.12)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	chains := map[string][]Transform{
		"sample":     {SampleRows(0.5, 9)},
		"rows":       {RowRange(50, 250)},
		"items":      {ItemRange(10, 50)},
		"minsup":     {MinItemSupport(20)},
		"everything": {RowRange(20, 290), SampleRows(0.8, 9), ItemRange(0, 55), MinItemSupport(10)},
	}
	for name, chain := range chains {
		for _, remap := range []bool{false, true} {
			res, err := FromBytes("t.dat", buf.Bytes(), Options{Transforms: chain, Remap: remap})
			if err != nil {
				t.Fatalf("%s remap=%v: %v", name, remap, err)
			}
			want, wantMapping := Apply(d, remap, chain...)
			if !datasetsEqual(res.Dataset, want) {
				t.Fatalf("%s remap=%v: streaming result differs from Apply", name, remap)
			}
			if len(res.Mapping) != len(wantMapping) {
				t.Fatalf("%s remap=%v: mapping lengths %d vs %d", name, remap, len(res.Mapping), len(wantMapping))
			}
			for i := range res.Mapping {
				if res.Mapping[i] != wantMapping[i] {
					t.Fatalf("%s remap=%v: mapping[%d] = %d vs %d", name, remap, i, res.Mapping[i], wantMapping[i])
				}
			}
		}
	}
}

func TestRemapIsFrequencyOrdered(t *testing.T) {
	// Item 5 in every row, item 2 in two, item 9 in one.
	src := "5 2\n5 2\n5 9\n"
	res, err := FromBytes("t.dat", []byte(src), Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	wantMapping := []int{5, 2, 9}
	for i, w := range wantMapping {
		if res.Mapping[i] != w {
			t.Fatalf("mapping = %v, want %v", res.Mapping, wantMapping)
		}
	}
	freq := res.Dataset.ItemFrequencies()
	for i := 1; i < len(freq); i++ {
		if freq[i] > freq[i-1] {
			t.Fatalf("frequencies not decreasing after remap: %v", freq)
		}
	}
}

// reportString renders every deterministic field of a Report; the golden
// equivalence tests compare these strings byte for byte.
func reportString(rep *engine.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "algorithm=%s initpool=%d iterations=%d visited=%d stopped=%v warnings=%v\n",
		rep.Algorithm, rep.InitPoolSize, rep.Iterations, rep.Visited, rep.Stopped, rep.Warnings)
	for _, p := range rep.Patterns {
		fmt.Fprintf(&sb, "%v support=%d\n", p.Items, p.Support())
	}
	return sb.String()
}

// TestGoldenRemappedReplaceReportsMatchInMemory is the acceptance golden
// test: the generated Replace dataset, written to disk, ingested through
// the streaming path with frequency remapping, and mined, must produce —
// after RemapReport translation — byte-identical Reports to mining the
// legacy in-memory load, for a complete (label-independent) miner.
func TestGoldenRemappedReplaceReportsMatchInMemory(t *testing.T) {
	d, _ := datagen.Replace(1)
	path := filepath.Join(t.TempDir(), "replace.dat")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	legacy, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Load(path, Options{Remap: true})
	if err != nil {
		t.Fatal(err)
	}
	if datasetsEqual(res.Dataset, legacy) {
		t.Fatal("remapped ingestion unexpectedly produced identical item IDs; remap is not exercising anything")
	}
	for _, algo := range []struct {
		name string
		opts engine.Options
	}{
		{"apriori", engine.Options{MinSupport: 0.5, MaxSize: 2, Parallelism: 1}},
		{"eclat", engine.Options{MinSupport: 0.6, MaxSize: 3, Parallelism: 1}},
	} {
		alg, err := engine.Get(algo.name)
		if err != nil {
			t.Fatal(err)
		}
		wantRep, err := alg.Mine(context.Background(), legacy, algo.opts)
		if err != nil {
			t.Fatal(err)
		}
		gotRaw, err := alg.Mine(context.Background(), res.Dataset, algo.opts)
		if err != nil {
			t.Fatal(err)
		}
		got := reportString(RemapReport(gotRaw, res.Mapping))
		want := reportString(wantRep)
		if got != want {
			t.Fatalf("%s: remapped streaming report differs from in-memory report\n--- remapped:\n%s--- in-memory:\n%s", algo.name, got, want)
		}
	}
}

// TestStreamingPathReportEqualsInMemoryPath covers the no-transform e2e
// acceptance clause: the same file mined via the streaming path and via
// the legacy in-memory path produces byte-identical Reports.
func TestStreamingPathReportEqualsInMemoryPath(t *testing.T) {
	d := datagen.DiagPlus(12, 8, 11)
	path := filepath.Join(t.TempDir(), "diagplus.dat")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	legacy, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Load(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		alg, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{MinSupport: 0.4, Parallelism: 1}
		wantRep, err := alg.Mine(context.Background(), legacy, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := alg.Mine(context.Background(), res.Dataset, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportString(gotRep), reportString(wantRep); got != want {
			t.Fatalf("%s: streaming-path report differs from in-memory path\n--- streaming:\n%s--- in-memory:\n%s", name, got, want)
		}
	}
}

func TestSaveAtomicReplacesReadOnlyTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.dat")
	if err := os.WriteFile(path, []byte("old content\n"), 0o400); err != nil {
		t.Fatal(err)
	}
	d := dataset.MustNew([][]int{{1, 2}, {3}})
	if err := d.Save(path); err != nil {
		t.Fatalf("Save over a read-only file must succeed via rename: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1 2\n3\n" {
		t.Fatalf("content = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
