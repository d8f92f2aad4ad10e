package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestTableFormats pins the cell formats: in the CSV durations are
// seconds and floats carry six decimals, bools are 1 or 0, and facts are
// left out; the text rounds durations and lists the facts.
func TestTableFormats(t *testing.T) {
	tab := &Table{
		Columns: []string{"n", "seconds", "exceeded", "delta", "center"},
		Rows: [][]any{
			{10, 1234567 * time.Nanosecond, false, 0.91, "(0 1)"},
			{20, 2*time.Second + 5*time.Microsecond, true, 11.0 / 30, "(a,b)"},
		},
		Facts: []Fact{{"total", 2}, {"found", true}},
	}
	var csv, text bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	wantCSV := "n,seconds,exceeded,delta,center\n" +
		"10,0.001235,0,0.910000,(0 1)\n" +
		"20,2.000005,1,0.366667,\"(a,b)\"\n"
	if csv.String() != wantCSV {
		t.Errorf("CSV:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}
	wantText := "n   seconds  exceeded  delta     center\n" +
		"10  1.235ms  0         0.910000  (0 1)\n" +
		"20  2s       1         0.366667  (a,b)\n" +
		"total: 2\n" +
		"found: 1\n"
	if text.String() != wantText {
		t.Errorf("text:\n%s\nwant:\n%s", text.String(), wantText)
	}
}

// Cell formats of the figures' CSV files.
const (
	intCell  = `\d+`
	realCell = `\d+\.\d{6}` // seconds, Δ and recall
	flagCell = `[01]`
)

// checkCSV runs a figure at a small scale and checks its CSV: the header,
// and each row's cells against the column formats.
func checkCSV(t *testing.T, run func() (*Table, error), header string, formats ...string) {
	t.Helper()
	tab, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^" + strings.Join(formats, ",") + "$")
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if lines[0] != header || len(lines) < 2 {
		t.Fatalf("CSV:\n%s\nwant header %s and rows", b.String(), header)
	}
	for _, line := range lines[1:] {
		if !row.MatchString(line) {
			t.Errorf("row %q does not match %s", line, row)
		}
	}
}

func TestWriteFig6CSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) {
		return Fig6(Fig6Config{Config: Config{Budget: time.Second, Seed: 1}, Sizes: []int{5, 8}, K: 10, Tau: 0.5})
	}, "n,maximal_seconds,maximal_exceeded,maximal_found,fusion_seconds,fusion_patterns",
		intCell, realCell, flagCell, intCell, realCell, intCell)
}

func TestWriteFig7CSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) { return Fig7(smallFig7(1)) },
		"k,delta_fusion,delta_uniform", intCell, realCell, realCell)
}

func TestWriteFig8CSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) {
		cfg := DefaultFig8Config(Config{Seed: 1})
		cfg.Ks, cfg.MinSizes = []int{10, 20}, []int{43, 44}
		return Fig8(cfg)
	}, "min_size,q_size,k,delta", intCell, intCell, intCell, realCell)
}

func TestWriteFig9CSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) {
		cfg := DefaultFig9Config(Config{Seed: 1})
		cfg.K = 10
		return Fig9(cfg)
	}, "pattern_size,complete,fusion", intCell, intCell, intCell)
}

func TestWriteFig10CSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) {
		cfg := DefaultFig10Config(Config{Budget: 50 * time.Millisecond, Seed: 1})
		cfg.MinCounts, cfg.K = []int{31}, 10
		return Fig10(cfg)
	}, "min_count,maximal_seconds,maximal_exceeded,topk_seconds,topk_exceeded,fusion_seconds",
		intCell, realCell, flagCell, realCell, flagCell, realCell)
}

func TestWriteAblationCSV(t *testing.T) {
	checkCSV(t, func() (*Table, error) {
		return Ablations(AblationConfig{Config: Config{Seed: 1, Parallelism: 2}, K: 10})
	}, "sweep,setting,recall,seconds,patterns", `[a-z]+`, `\S+`, realCell, realCell, intCell)
}
