package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// Appender maintains an ingested dataset under append-only growth: each
// Append decodes one chunk of raw bytes in the source's format and
// extends the committed transactions, per-item frequencies, column
// TID-sets and sha256 lineage in place of a full re-ingest — pass 1 is
// never re-read.
//
// The contract is strict equivalence: after any sequence of successful
// appends, Result() is identical to Ingest over the byte-concatenation
// of the base source and every appended chunk — same rows, same
// frequencies, same column sets (members and dense/sparse
// representation, re-chosen per append as the SparseThreshold grows with
// the row count), same CSV symbol table, and the same SHA256, because
// the running hash digests exactly the concatenated raw bytes (gzip
// chunks concatenate into a valid multistream file). The differential
// tests in append_test.go pin this across every format, plain and gzip.
//
// Appends are atomic: a chunk that fails to decode (bad cell, item above
// the MaxItem cap, truncated gzip) leaves the committed state — including
// the interned CSV symbol table — exactly as it was, and the same
// Appender remains usable.
//
// Constraints: the base ingestion must not use Transforms or Remap
// (appended rows would change which items survive retroactively, so
// there is no incremental form), each chunk's compression must match the
// base's, chunks must contain whole lines (an append after an
// unterminated final line is rejected — it would merge rows), and a
// chunk must be a self-contained document in the same format. An
// Appender is not safe for concurrent use.
type Appender struct {
	name    string
	maxItem int
	format  Format
	gzipped bool
	hasher  hash.Hash
	midLine bool
	freq    []int
	txns    []itemset.Itemset
	seqs    [][]int // ordered rows; non-nil iff the format is sequential
	sets    []*tidset.Set
	res     *Result
	undo    *undoState
}

// undoState is the restore point Undo reverts to: the full committed
// state as of just before the last successful Append.
type undoState struct {
	rows    int
	freq    []int
	sets    []*tidset.Set
	midLine bool
	hasher  []byte
	syms    int
	res     *Result
}

// NewAppender ingests src as the appendable base. opts.Transforms and
// opts.Remap are rejected; opts.Format and opts.MaxItem behave as in
// Ingest.
func NewAppender(src Source, opts Options) (*Appender, error) {
	if len(opts.Transforms) > 0 || opts.Remap {
		return nil, fmt.Errorf("ingest: append: transforms and remap are not supported on appendable datasets")
	}
	if opts.MaxItem == 0 {
		opts.MaxItem = DefaultMaxItem
	}
	res, st, err := ingestState(src, opts)
	if err != nil {
		return nil, err
	}
	a := &Appender{
		name:    src.Name(),
		maxItem: opts.MaxItem,
		format:  st.format,
		gzipped: res.Gzipped,
		hasher:  st.hasher,
		midLine: st.midLine,
		freq:    st.freq,
		txns:    res.Dataset.Transactions(),
		seqs:    res.Dataset.Sequences(),
		res:     res,
	}
	a.sets = make([]*tidset.Set, res.Dataset.NumItems())
	for i := range a.sets {
		a.sets[i] = res.Dataset.ItemTIDs(i)
	}
	return a, nil
}

// Result returns the latest snapshot: the base result after construction,
// and after each successful Append a fresh Result over the extended data.
// Snapshots are immutable — later appends never modify an earlier one.
func (a *Appender) Result() *Result { return a.res }

// Rows returns the number of committed transactions.
func (a *Appender) Rows() int { return len(a.txns) }

// Append decodes data as one chunk of additional rows and commits them,
// returning the new snapshot. A zero-length chunk is a no-op. On error
// nothing is committed.
func (a *Appender) Append(data []byte) (*Result, error) {
	if len(data) == 0 {
		return a.res, nil
	}
	if a.midLine {
		return nil, fmt.Errorf("ingest: append %s: existing data does not end in a newline; appending would merge rows", a.name)
	}
	gz := len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
	if gz != a.gzipped {
		return nil, fmt.Errorf("ingest: append %s: chunk compression (gzip=%v) must match the base (gzip=%v)", a.name, gz, a.gzipped)
	}

	// Decode the whole chunk before touching committed state, rolling the
	// CSV symbol table back on any error so a failed append is invisible.
	var table *SymbolTable
	symBase := 0
	if c, ok := a.format.(*CSV); ok {
		table = c.Table
		symBase = table.Len()
	}
	newTxns, newSeqs, tail, err := a.decodeChunk(data, gz)
	if err != nil {
		if table != nil {
			table.truncate(symBase)
		}
		return nil, fmt.Errorf("ingest: append %s: %w", a.name, err)
	}

	// Restore point for Undo: everything below either replaces state
	// wholesale (sets, res) or is captured by copy (freq, hasher digest).
	st := &undoState{
		rows:    len(a.txns),
		freq:    append([]int(nil), a.freq...),
		sets:    a.sets,
		midLine: a.midLine,
		syms:    symBase,
		res:     a.res,
	}
	if m, ok := a.hasher.(encoding.BinaryMarshaler); ok {
		st.hasher, _ = m.MarshalBinary()
	}

	// Commit: frequencies, universe, per-column TID extension, lineage.
	oldRows := len(a.txns)
	newRows := oldRows + len(newTxns)
	for _, txn := range newTxns {
		for _, item := range txn {
			for item >= len(a.freq) {
				a.freq = append(a.freq, make([]int, len(a.freq)+64)...)
			}
			a.freq[item]++
		}
	}
	universe := len(a.sets)
	for item := universe; item < len(a.freq); item++ {
		if a.freq[item] > 0 {
			universe = item + 1
		}
	}
	addedTIDs := make([][]uint32, universe)
	for i, txn := range newTxns {
		tid := uint32(oldRows + i)
		for _, item := range txn {
			addedTIDs[item] = append(addedTIDs[item], tid)
		}
	}
	sets := make([]*tidset.Set, universe)
	for c := range sets {
		old := tidset.New(oldRows)
		if c < len(a.sets) {
			old = a.sets[c]
		}
		sets[c] = old.ExtendClone(newRows, addedTIDs[c])
	}
	a.txns = append(a.txns, newTxns...)
	if a.seqs != nil {
		a.seqs = append(a.seqs, newSeqs...)
	}
	a.sets = sets
	a.hasher.Write(data)
	a.midLine = tail

	ds := dataset.FromParts(a.txns[:newRows:newRows], sets)
	if a.seqs != nil {
		ds.SetSequences(a.seqs[:newRows:newRows])
	}
	res := &Result{
		Dataset:  ds,
		Format:   a.format.Name(),
		Gzipped:  a.gzipped,
		Symbols:  table,
		SHA256:   hex.EncodeToString(a.hasher.Sum(nil)),
		RowsRead: newRows,
		RowsKept: newRows,
	}
	a.res = res
	a.undo = st
	return res, nil
}

// Undo reverts the last successful Append, restoring the committed state
// — rows, frequencies, column sets, symbol table, lineage hash — to what
// it was before that call. One level only: a second Undo without an
// intervening Append errors. Undo invalidates the reverted snapshot (its
// symbol table is truncated and its transaction backing may be reused by
// later appends); earlier snapshots stay intact. It exists for callers
// that must reject an already-committed append for reasons the Appender
// cannot know — a resource cap, a failed durability write.
func (a *Appender) Undo() error {
	st := a.undo
	if st == nil {
		return fmt.Errorf("ingest: append %s: nothing to undo", a.name)
	}
	a.undo = nil
	// Reallocate rather than reslice: the reverted snapshot's dataset
	// shares the old backing array past st.rows, and a later Append must
	// not overwrite it.
	a.txns = append([]itemset.Itemset(nil), a.txns[:st.rows]...)
	if a.seqs != nil {
		a.seqs = append([][]int(nil), a.seqs[:st.rows]...)
	}
	a.freq = st.freq
	a.sets = st.sets
	a.midLine = st.midLine
	a.res = st.res
	if c, ok := a.format.(*CSV); ok {
		c.Table.truncate(st.syms)
	}
	if len(st.hasher) > 0 {
		if u, ok := a.hasher.(encoding.BinaryUnmarshaler); ok {
			if err := u.UnmarshalBinary(st.hasher); err != nil {
				return fmt.Errorf("ingest: append %s: restoring lineage hash: %w", a.name, err)
			}
		}
	}
	return nil
}

// decodeChunk decodes one chunk into canonical transactions — plus, for
// sequential formats, the ordered rows — reporting whether the
// decompressed chunk ended mid-line. It validates the MaxItem cap but
// does not mutate any Appender state (the CSV symbol table, mutated by
// the shared Format value, is the caller's to roll back).
func (a *Appender) decodeChunk(data []byte, gz bool) ([]itemset.Itemset, [][]int, bool, error) {
	var rdr io.Reader = bytes.NewReader(data)
	if gz {
		zr, err := gzip.NewReader(bufio.NewReader(rdr))
		if err != nil {
			return nil, nil, false, err
		}
		rdr = zr
	}
	tail := &tailReader{r: rdr}
	dec := a.format.NewDecoder(tail)
	var txns []itemset.Itemset
	var seqs [][]int
	var arena, seqArena rowArena
	ordered := sequential(a.format)
	row := len(a.txns)
	for {
		items, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, false, err
		}
		for _, item := range items {
			if a.maxItem > 0 && item > a.maxItem {
				return nil, nil, false, fmt.Errorf("row %d: item %d exceeds the %d item-ID cap", row, item, a.maxItem)
			}
		}
		if ordered {
			seqs = append(seqs, seqArena.put(items))
		}
		txns = append(txns, arena.put(canonicalize(items)))
		row++
	}
	// The committed rows live as long as the Appender: pack them.
	return packRows(txns), packRows(seqs), tail.midLine(), nil
}

// truncate rolls the table back to its first n symbols, undoing the
// interning a failed chunk decode performed.
func (t *SymbolTable) truncate(n int) {
	for _, sym := range t.syms[n:] {
		delete(t.ids, sym)
	}
	t.syms = t.syms[:n]
}
