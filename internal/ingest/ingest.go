package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// DefaultMaxItem caps source item IDs (16M): the vertical representation
// allocates per-universe-item state, so an absurd ID in a one-line file
// must be a decode error, not an allocation.
const DefaultMaxItem = 1 << 24

// sniffBytes is how much of the (decompressed) stream SniffFormat sees.
const sniffBytes = 4096

// Options configures an ingestion run.
type Options struct {
	// Format forces the input format; nil sniffs it from the source name
	// and content (see SniffFormat). Gzip is detected independently of
	// the format, by magic bytes.
	Format Format
	// Transforms filter rows and items; see Transform.
	Transforms []Transform
	// Remap renumbers surviving items 0..n−1 in decreasing frequency
	// order (ties by source ID). Result.Mapping records the renumbering.
	Remap bool
	// MaxItem rejects source item IDs above this bound; zero selects
	// DefaultMaxItem, negative means unbounded.
	MaxItem int
}

// Result is the outcome of an ingestion run.
type Result struct {
	// Dataset is the ingested transaction database.
	Dataset *dataset.Dataset
	// Format is the name of the format that decoded the source.
	Format string
	// Gzipped reports whether the source was gzip-compressed.
	Gzipped bool
	// Symbols is the CSV symbol table (item ID → symbol), nil for
	// numeric formats. Its IDs are source IDs: apply Mapping first when
	// the ingestion remapped.
	Symbols *SymbolTable
	// Mapping is the new→source item-ID translation of a remapped
	// ingestion, nil otherwise. RemapReport uses it to translate mining
	// reports back to source IDs.
	Mapping []int
	// SHA256 is the hex content hash of the raw (still-compressed)
	// source bytes — the identity key of pfserve's dataset cache.
	SHA256 string
	// RowsRead counts decoded source rows; RowsKept counts rows that
	// survived the transforms and are in Dataset.
	RowsRead, RowsKept int
}

// Source supplies the raw bytes of one dataset, twice: the two-pass
// builder opens it once per pass.
type Source interface {
	// Open returns a fresh reader positioned at the start of the source.
	Open() (io.ReadCloser, error)
	// Name is the source's display name; its extension participates in
	// format sniffing.
	Name() string
}

// FileSource returns a Source reading the named file.
func FileSource(path string) Source { return fileSource(path) }

type fileSource string

func (f fileSource) Open() (io.ReadCloser, error) { return os.Open(string(f)) }
func (f fileSource) Name() string                 { return string(f) }

// BytesSource returns a Source over an in-memory buffer, e.g. an HTTP
// upload body. name is used for sniffing and error messages.
func BytesSource(name string, data []byte) Source {
	return &bytesSource{name: name, data: data}
}

type bytesSource struct {
	name string
	data []byte
}

func (b *bytesSource) Open() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(b.data)), nil
}
func (b *bytesSource) Name() string { return b.name }

// Load ingests the named file.
func Load(path string, opts Options) (*Result, error) {
	return Ingest(FileSource(path), opts)
}

// FromBytes ingests an in-memory buffer.
func FromBytes(name string, data []byte, opts Options) (*Result, error) {
	return Ingest(BytesSource(name, data), opts)
}

// Ingest runs the two-pass streaming builder over src. Pass one decodes
// every row, applies the row transforms, and accumulates per-item
// support counts (plus the content hash); pass two re-decodes and emits
// the canonical transactions and per-item tidset.Set columns directly
// into the final Dataset — the raw [][]int intermediate is never built.
// The transactions share one array sized from the pass-one counts.
func Ingest(src Source, opts Options) (*Result, error) {
	res, _, err := ingestState(src, opts)
	return res, err
}

// appendState is the pass-1 residue an Appender carries forward: the
// resolved (possibly stateful) Format value, the live sha256 hasher over
// the raw bytes, the per-source-item frequencies, and whether the
// decompressed stream ended mid-line (no trailing newline).
type appendState struct {
	format  Format
	hasher  hash.Hash
	freq    []int
	midLine bool
}

// ingestState is Ingest plus the captured appendState.
func ingestState(src Source, opts Options) (*Result, *appendState, error) {
	if opts.MaxItem == 0 {
		opts.MaxItem = DefaultMaxItem
	}
	res := &Result{}

	// Pass 1: frequencies, row counts, content hash, format resolution.
	format := opts.Format
	var freq []int
	hasher := sha256.New()
	tail := &tailReader{}
	err := pass(src, hasher, func(rdr *bufio.Reader, gzipped bool) error {
		res.Gzipped = gzipped
		if format == nil {
			head, err := rdr.Peek(sniffBytes)
			if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
				return err
			}
			format = SniffFormat(src.Name(), head)
		}
		tail.r = rdr
		dec := format.NewDecoder(tail)
		for {
			items, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			row := res.RowsRead
			res.RowsRead++
			if !keepRow(opts.Transforms, row) {
				continue
			}
			res.RowsKept++
			// Count each item once per row: support is row membership,
			// not occurrence count.
			for _, item := range canonicalize(items) {
				if opts.MaxItem > 0 && item > opts.MaxItem {
					return fmt.Errorf("row %d: item %d exceeds the %d item-ID cap", row, item, opts.MaxItem)
				}
				for item >= len(freq) {
					freq = append(freq, make([]int, len(freq)+64)...)
				}
				freq[item]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", src.Name(), err)
	}
	// pass drained the raw stream, so the hash covers the whole source.
	res.SHA256 = hex.EncodeToString(hasher.Sum(nil))
	res.Format = format.Name()
	if c, ok := format.(*CSV); ok {
		res.Symbols = c.Table
	}

	plan := planItems(freq, opts.Transforms, opts.Remap)
	res.Mapping = plan.mapping

	// Pass 2: emit canonical transactions and compressed TID columns. The
	// pass-1 frequencies size every column exactly and pick its
	// representation (dense words vs sorted array) before any TID lands.
	// They also sum to the number of canonical items, so every row is
	// carved from one exact-sized array.
	txns := make([]itemset.Itemset, 0, res.RowsKept)
	// Sequence formats additionally keep each row's translated events in
	// source order (repeats included) for the dataset's ordered view.
	var seqRows [][]int
	var seqArena rowArena
	if sequential(format) {
		seqRows = make([][]int, 0, res.RowsKept)
	}
	counts := make([]int, plan.universe)
	total := 0
	for src, nt := range plan.translate {
		if nt >= 0 {
			counts[nt] = freq[src]
			total += freq[src]
		}
	}
	arena := newRowArena(total)
	builder := tidset.NewBuilder(res.RowsKept, counts)
	scratch := make([]int, 0, 64)
	row := 0
	err = pass(src, nil, func(rdr *bufio.Reader, _ bool) error {
		dec := format.NewDecoder(rdr)
		for {
			items, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			keep := keepRow(opts.Transforms, row)
			row++
			if !keep {
				continue
			}
			scratch = scratch[:0]
			for _, item := range items {
				if item >= len(plan.translate) {
					return fmt.Errorf("source changed between passes (new item %d)", item)
				}
				if nt := plan.translate[item]; nt >= 0 {
					scratch = append(scratch, nt)
				}
			}
			if seqRows != nil {
				seqRows = append(seqRows, seqArena.put(scratch))
			}
			tid := len(txns)
			if tid >= res.RowsKept {
				return fmt.Errorf("source changed between passes (extra row)")
			}
			canon := canonicalize(scratch)
			if len(canon) > arena.room() {
				return fmt.Errorf("source changed between passes (more items than counted)")
			}
			txn := itemset.Itemset(arena.put(canon))
			txns = append(txns, txn)
			for _, item := range txn {
				builder.Add(item, tid)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", src.Name(), err)
	}
	if len(txns) != res.RowsKept {
		return nil, nil, fmt.Errorf("ingest: %s: source changed between passes (%d rows, then %d)", src.Name(), res.RowsKept, len(txns))
	}
	res.Dataset = dataset.FromParts(txns, builder.Sets())
	res.Dataset.SetSequences(packRows(seqRows))
	return res, &appendState{format: format, hasher: hasher, freq: freq, midLine: tail.midLine()}, nil
}

// canonicalize sorts row in place and drops repeats, returning the
// canonical prefix of row.
func canonicalize(row []int) []int {
	slices.Sort(row)
	return slices.Compact(row)
}

// rowArena copies rows into shared backing arrays instead of one
// allocation per row. Each row is a cap-clipped sub-slice (buf[i:j:j]),
// so an append to one row reallocates rather than writing into its
// neighbour.
type rowArena struct{ buf []int }

// newRowArena returns an arena whose first array holds exactly n items.
func newRowArena(n int) rowArena { return rowArena{buf: make([]int, 0, n)} }

// room is how many items fit before put must start a new array.
func (a *rowArena) room() int { return cap(a.buf) - len(a.buf) }

// put copies row into the arena and returns the copy; an empty row is
// nil, as itemset.Canonical returns it. When row does not fit, put
// starts a new array of twice the old capacity, or of row's length if
// that is more.
func (a *rowArena) put(row []int) []int {
	if len(row) == 0 {
		return nil
	}
	if len(row) > a.room() {
		a.buf = make([]int, 0, max(len(row), 2*cap(a.buf)))
	}
	start := len(a.buf)
	a.buf = append(a.buf, row...)
	return a.buf[start:len(a.buf):len(a.buf)]
}

// packRows moves rows into one exact-sized array, dropping the slack
// a growing arena leaves.
func packRows[R ~[]int](rows []R) []R {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	arena := newRowArena(n)
	for i, r := range rows {
		rows[i] = arena.put(r)
	}
	return rows
}

// tailReader passes reads through while remembering the last byte seen,
// so the appender can tell whether the decompressed stream ended with a
// newline (appending after an unterminated final line would merge rows).
type tailReader struct {
	r    io.Reader
	last byte
	seen bool
}

func (t *tailReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.last = p[n-1]
		t.seen = true
	}
	return n, err
}

// midLine reports whether any bytes were seen and the last was not '\n'.
func (t *tailReader) midLine() bool { return t.seen && t.last != '\n' }

// pass opens src once, arranges hashing (of the raw bytes) and
// transparent gunzip, and hands the decompressed stream to fn. When
// hasher is non-nil the remaining raw bytes are drained after fn so the
// hash always covers the whole source.
func pass(src Source, hasher hash.Hash, fn func(rdr *bufio.Reader, gzipped bool) error) error {
	rc, err := src.Open()
	if err != nil {
		return err
	}
	defer rc.Close()
	var raw io.Reader = rc
	if hasher != nil {
		raw = io.TeeReader(rc, hasher)
	}
	br := bufio.NewReaderSize(raw, 64<<10)
	stream, gzipped, err := maybeGunzip(br)
	if err != nil {
		return err
	}
	rdr, ok := stream.(*bufio.Reader)
	if !ok {
		rdr = bufio.NewReaderSize(stream, 64<<10)
	}
	if err := fn(rdr, gzipped); err != nil {
		return err
	}
	if hasher != nil {
		// The decoder may not have pulled the final raw bytes through
		// the tee (gzip trailers, buffered read-ahead): drain them.
		if _, err := io.Copy(io.Discard, br); err != nil {
			return err
		}
	}
	return nil
}

// maybeGunzip inspects the stream's magic bytes and transparently
// unwraps gzip. Streams shorter than two bytes pass through unchanged.
func maybeGunzip(br *bufio.Reader) (io.Reader, bool, error) {
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	if len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, false, err
		}
		return zr, true, nil
	}
	return br, false, nil
}

// HashFile returns the hex SHA-256 of the named file's raw bytes — the
// same identity Ingest reports in Result.SHA256, computable without a
// parse. pfserve hashes -data-dir files with it to probe its dataset
// cache before paying for ingestion.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RemapReport translates a mining report produced on a remapped
// ingestion back to source item IDs using Result.Mapping, re-sorting the
// patterns into the canonical report order. A nil mapping (ingestion
// without remap) returns rep unchanged. Supports, counters and warnings
// are preserved, so for any complete (label-independent) miner the
// translated report is byte-identical to mining the unmapped dataset.
//
// Itemset patterns are re-canonicalized after translation (the remap is
// order-reversing, so a translated itemset is no longer sorted). Pattern
// item order is preserved verbatim for algorithms that declare it
// meaningful (the sequence miner, registered as engine.Ranged.Ordered):
// there each Items slice is an event sequence and sorting it would
// corrupt the pattern.
func RemapReport(rep *engine.Report, mapping []int) *engine.Report {
	if mapping == nil {
		return rep
	}
	alg, _ := engine.Get(rep.Algorithm)
	out := *rep
	out.Patterns = make([]*dataset.Pattern, len(rep.Patterns))
	for i, p := range rep.Patterns {
		raw := make([]int, len(p.Items))
		for j, item := range p.Items {
			raw[j] = mapping[item]
		}
		items := itemset.Itemset(raw)
		if !alg.Ordered {
			items = itemset.Canonical(raw)
		}
		out.Patterns[i] = dataset.NewPatternCounted(items, p.TIDs, p.Support())
	}
	dataset.SortPatterns(out.Patterns)
	return &out
}
