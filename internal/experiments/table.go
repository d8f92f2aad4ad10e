package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// A Table is one experiment's result: named columns, one row of cells
// per point, and facts about the whole run. Columns mirror the axes of
// the paper's figures. Cells are ints, strings, float64s, bools,
// time.Durations or values with a String method; an exact-miner run
// stopped at its budget carries exceeded = true and the time it
// actually ran, which is the budget plus the time it took to stop.
type Table struct {
	Columns []string
	Rows    [][]any
	Facts   []Fact
}

// A Fact is a named value about a whole run, such as a total or a note.
type Fact struct {
	Name  string
	Value any
}

// WriteCSV writes the header and the rows as CSV, for a plotting tool:
// durations in seconds and floats with six decimals, bools as 1 or 0.
// Facts are not part of the CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cw.Write(t.Columns)
	for _, row := range t.Rows {
		cw.Write(format(row, false))
	}
	cw.Flush()
	return cw.Error()
}

// WriteText writes the table as aligned columns, cells as in the CSV
// but durations rounded, then one "name: value" line per fact.
func (t *Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(format(row, true), "\t"))
	}
	for _, f := range t.Facts {
		fmt.Fprintf(tw, "%s: %s\n", f.Name, format([]any{f.Value}, true)[0])
	}
	return tw.Flush()
}

// format renders cells for the CSV, or for text with durations rounded.
func format(cells []any, text bool) []string {
	out := make([]string, len(cells))
	for i, v := range cells {
		switch v := v.(type) {
		case time.Duration:
			switch {
			case !text:
				out[i] = strconv.FormatFloat(v.Seconds(), 'f', 6, 64)
			case v >= time.Second:
				out[i] = v.Round(time.Millisecond).String()
			default:
				out[i] = v.Round(time.Microsecond).String()
			}
		case float64:
			out[i] = strconv.FormatFloat(v, 'f', 6, 64)
		case bool:
			out[i] = "0"
			if v {
				out[i] = "1"
			}
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	return out
}
