package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// MaxLineBytes bounds a single input line; longer lines are a decode
// error (reported with the offending line number), not a silent
// truncation. It is dataset.MaxLineBytes by definition, so the
// streaming decoders and the in-memory dataset.Read reject the same
// inputs.
const MaxLineBytes = dataset.MaxLineBytes

// Format is one on-disk dataset encoding. A Format value may be stateful
// (CSV interns item symbols into its table as it decodes), so one Format
// value serves exactly one source: the two ingestion passes share it, two
// different sources must not.
type Format interface {
	// Name is the format's registry name: "fimi", "csv", "matrix", or
	// "seq".
	Name() string
	// NewDecoder returns a Decoder streaming transactions from r.
	NewDecoder(r io.Reader) Decoder
	// Encode writes d in this format. CSV writes the symbols interned
	// while decoding and falls back to decimal item IDs for items the
	// table does not know.
	Encode(w io.Writer, d *dataset.Dataset) error
}

// Decoder streams a dataset one transaction at a time.
type Decoder interface {
	// Next returns the next transaction's raw item IDs — possibly
	// unsorted and with duplicates — or io.EOF after the last row.
	// Comment lines are skipped and do not count as rows; blank lines
	// are empty transactions and do. The returned slice is reused:
	// it is only valid until the next call, and the caller may reorder
	// it in place.
	Next() ([]int, error)
}

// FormatNames lists the built-in format names accepted by FormatByName,
// in the order they are documented.
func FormatNames() []string { return []string{"fimi", "csv", "matrix", "seq"} }

// FormatByName returns a fresh Format value for the given name.
func FormatByName(name string) (Format, error) {
	switch name {
	case "fimi":
		return FIMI(), nil
	case "csv":
		return NewCSV(), nil
	case "matrix":
		return Matrix(), nil
	case "seq":
		return Seq(), nil
	}
	return nil, fmt.Errorf("ingest: unknown format %q (known: %s)", name, strings.Join(FormatNames(), ", "))
}

// SniffFormat picks a Format from a file name and a content preview (the
// first bytes of the decompressed stream). Extension wins — a trailing
// ".gz" is stripped first — and ".csv"/".basket" mean CSV,
// ".mat"/".matrix" mean matrix, ".dat"/".fimi"/".txt" mean FIMI.
// Otherwise the first non-comment, non-blank preview line decides:
// a comma or any non-integer token means CSV, all-integer tokens mean
// FIMI. A binary matrix and an event-sequence file are both
// syntactically valid FIMI, so matrix and seq files are only recognized
// by extension (".mat"/".matrix", ".seq") or an explicit format
// selection. Empty input defaults to FIMI.
func SniffFormat(name string, head []byte) Format {
	switch strings.ToLower(filepath.Ext(strings.TrimSuffix(name, ".gz"))) {
	case ".csv", ".basket":
		return NewCSV()
	case ".mat", ".matrix":
		return Matrix()
	case ".seq":
		return Seq()
	case ".dat", ".fimi", ".txt":
		return FIMI()
	}
	for _, line := range strings.Split(string(head), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, ",") {
			return NewCSV()
		}
		for _, f := range strings.Fields(line) {
			if _, err := strconv.Atoi(f); err != nil {
				return NewCSV()
			}
		}
		return FIMI()
	}
	return FIMI()
}

// lineScanner wraps bufio.Scanner with the shared line budget and
// 1-based line numbering used in decode errors.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	return &lineScanner{sc: sc}
}

// next returns the next line (1-based number in ls.line) or io.EOF.
// The bytes are the scanner's buffer: valid only until the next call.
// A token longer than MaxLineBytes is reported with the line it starts
// on instead of as a bare bufio error.
func (ls *lineScanner) next() ([]byte, error) {
	if !ls.sc.Scan() {
		if err := ls.sc.Err(); err != nil {
			if err == bufio.ErrTooLong {
				return nil, fmt.Errorf("line %d: line exceeds the %d-byte limit: %w", ls.line+1, MaxLineBytes, err)
			}
			return nil, err
		}
		return nil, io.EOF
	}
	ls.line++
	return ls.sc.Bytes(), nil
}

// ---------------------------------------------------------------------------
// FIMI: one transaction per line, whitespace-separated integer item IDs.

// FIMI returns the FIMI workshop format: one transaction per line of
// whitespace-separated non-negative integer item IDs, '#'-prefixed
// comment lines, blank lines as empty transactions — the grammar of
// dataset.Read.
func FIMI() Format { return fimiFormat{} }

type fimiFormat struct{}

func (fimiFormat) Name() string { return "fimi" }

func (fimiFormat) NewDecoder(r io.Reader) Decoder {
	return &fimiDecoder{ls: newLineScanner(r)}
}

func (fimiFormat) Encode(w io.Writer, d *dataset.Dataset) error {
	return d.Write(w)
}

type fimiDecoder struct {
	ls  *lineScanner
	buf []int
}

func (dec *fimiDecoder) Next() ([]int, error) {
	for {
		line, err := dec.ls.next()
		if err != nil {
			return nil, err
		}
		row, err := dec.parse(line)
		if err != nil {
			return nil, err
		}
		if row {
			return dec.buf, nil
		}
	}
}

// parse decodes one line into dec.buf in place, reporting false for a
// comment. A token of ASCII digits is parsed as it is scanned; any other
// token goes through add. A byte >= 0x80 hands the whole line to
// parseFields, since Unicode whitespace separates tokens too.
func (dec *fimiDecoder) parse(line []byte) (bool, error) {
	dec.buf = dec.buf[:0]
	i := skipSpace(line, 0)
	if i < len(line) && line[i] == '#' {
		return false, nil
	}
	for i < len(line) {
		v, j := 0, i
		for j < len(line) && line[j]-'0' <= 9 {
			v = v*10 + int(line[j]-'0')
			j++
		}
		// 18 digits cannot overflow an int64.
		if j-i <= 18 && (j == len(line) || asciiSpace[line[j]]) {
			dec.buf = append(dec.buf, v)
		} else {
			for j < len(line) && !asciiSpace[line[j]] {
				if line[j] >= 0x80 {
					return dec.parseFields(string(line))
				}
				j++
			}
			if err := dec.add(string(line[i:j])); err != nil {
				return false, err
			}
		}
		i = skipSpace(line, j)
	}
	return true, nil
}

// parseFields decodes one line with dataset.Read's own grammar.
func (dec *fimiDecoder) parseFields(line string) (bool, error) {
	dec.buf = dec.buf[:0]
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "#") {
		return false, nil
	}
	for _, f := range strings.Fields(line) {
		if err := dec.add(f); err != nil {
			return false, err
		}
	}
	return true, nil
}

// add parses one item token the way dataset.Read does, so signs, leading
// zeros, overflow and the error text all match it.
func (dec *fimiDecoder) add(f string) error {
	v, err := strconv.Atoi(f)
	if err != nil {
		return fmt.Errorf("line %d: bad item %q: %w", dec.ls.line, f, err)
	}
	if v < 0 {
		return fmt.Errorf("line %d: negative item %d", dec.ls.line, v)
	}
	dec.buf = append(dec.buf, v)
	return nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, the
// separators strings.Fields splits an ASCII line on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace returns the index of the first non-space byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && asciiSpace[b[i]] {
		i++
	}
	return i
}

// ---------------------------------------------------------------------------
// CSV / basket: one item symbol per comma-separated cell.

// SymbolTable interns item symbols to dense integer IDs in order of
// first appearance, and renders IDs back to symbols. The zero value is
// not ready; use NewSymbolTable.
type SymbolTable struct {
	ids  map[string]int
	syms []string
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]int)}
}

// Intern returns the ID of sym, assigning the next free ID on first
// sight.
func (t *SymbolTable) Intern(sym string) int {
	if id, ok := t.ids[sym]; ok {
		return id
	}
	id := len(t.syms)
	t.ids[sym] = id
	t.syms = append(t.syms, sym)
	return id
}

// internBytes is Intern for a symbol held in a byte slice: the lookup
// does not allocate, and only a new symbol is copied into a string.
func (t *SymbolTable) internBytes(sym []byte) int {
	if id, ok := t.ids[string(sym)]; ok {
		return id
	}
	return t.Intern(string(sym))
}

// Symbol renders an item ID: the interned symbol when the table knows
// the ID, its decimal representation otherwise.
func (t *SymbolTable) Symbol(id int) string {
	if t != nil && id >= 0 && id < len(t.syms) {
		return t.syms[id]
	}
	return strconv.Itoa(id)
}

// Len returns the number of interned symbols.
func (t *SymbolTable) Len() int { return len(t.syms) }

// CSV is the basket format: one transaction per line, one item symbol
// per comma-separated cell. Cells are whitespace-trimmed; empty cells
// are skipped; a line is a comment iff its first byte is '#' (Encode
// prefixes a space to a row whose first symbol starts with '#', so
// decode–encode round-trips). Symbols are interned into Table in order
// of first appearance.
type CSV struct {
	// Table maps symbols to the item IDs this CSV value has assigned.
	Table *SymbolTable
}

// NewCSV returns a CSV format with a fresh symbol table.
func NewCSV() *CSV { return &CSV{Table: NewSymbolTable()} }

// Name returns "csv".
func (*CSV) Name() string { return "csv" }

// NewDecoder returns a Decoder interning symbols into c.Table.
func (c *CSV) NewDecoder(r io.Reader) Decoder {
	return &csvDecoder{ls: newLineScanner(r), table: c.Table}
}

// Encode writes d with one symbol cell per item, using c.Table.
func (c *CSV) Encode(w io.Writer, d *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, txn := range d.Transactions() {
		for i, item := range txn {
			sym := c.Table.Symbol(item)
			if i == 0 && strings.HasPrefix(sym, "#") {
				// A leading '#' would read back as a comment; a leading
				// space keeps the line data (cells are trimmed).
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(sym); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type csvDecoder struct {
	ls    *lineScanner
	table *SymbolTable
	buf   []int
}

func (dec *csvDecoder) Next() ([]int, error) {
	for {
		line, err := dec.ls.next()
		if err != nil {
			return nil, err
		}
		if len(line) > 0 && line[0] == '#' {
			continue
		}
		dec.buf = dec.buf[:0]
		for {
			cell := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				cell, line = line[:i], line[i+1:]
			}
			if cell = bytes.TrimSpace(cell); len(cell) > 0 {
				dec.buf = append(dec.buf, dec.table.internBytes(cell))
			}
			if i < 0 {
				return dec.buf, nil
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Matrix: dense 0/1 rows, column j = item j.

// Matrix returns the dense binary-matrix format: one row per line, each
// a sequence of '0'/'1' cells (whitespace between cells optional, so
// both "0 1 1" and "011" parse); column j set means item j is in the
// transaction. '#'-prefixed lines are comments, blank lines are empty
// transactions. Encode writes compact unseparated rows over the full
// item universe.
func Matrix() Format { return matrixFormat{} }

type matrixFormat struct{}

func (matrixFormat) Name() string { return "matrix" }

func (matrixFormat) NewDecoder(r io.Reader) Decoder {
	return &matrixDecoder{ls: newLineScanner(r)}
}

func (matrixFormat) Encode(w io.Writer, d *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	row := make([]byte, d.NumItems()+1)
	for _, txn := range d.Transactions() {
		for i := 0; i < d.NumItems(); i++ {
			row[i] = '0'
		}
		for _, item := range txn {
			row[item] = '1'
		}
		row[d.NumItems()] = '\n'
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type matrixDecoder struct {
	ls  *lineScanner
	buf []int
}

func (dec *matrixDecoder) Next() ([]int, error) {
	for {
		line, err := dec.ls.next()
		if err != nil {
			return nil, err
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 && line[0] == '#' {
			continue
		}
		dec.buf = dec.buf[:0]
		col := 0
		for _, c := range line {
			switch c {
			case '0':
				col++
			case '1':
				dec.buf = append(dec.buf, col)
				col++
			case ' ', '\t':
				// cell separators are optional and do not advance columns
			default:
				return nil, fmt.Errorf("line %d: matrix cell %q is not 0 or 1", dec.ls.line, string(c))
			}
		}
		return dec.buf, nil
	}
}
