package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// sha256Hex is the hex sha256 of b, as `sha256sum` prints it.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cutColumns keeps the given 0-based comma-separated fields of every
// line, as `cut -d, -f` does with the 1-based ones.
func cutColumns(csv string, fields ...int) string {
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(csv, "\n"), "\n") {
		cells := strings.Split(line, ",")
		for i, f := range fields {
			if i > 0 {
				out.WriteByte(',')
			}
			out.WriteString(cells[f])
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// TestFigureDataGolden pins the data of the figures whose CSV carries no
// timings, at the default configurations and seed 1, for one and two
// workers: Figures 7, 8 and 9 byte for byte, and the ablation sweep's
// sweep, setting, recall and patterns columns (its seconds column is
// wall-clock). The hashes are those of the files `pfexp -csv` writes.
func TestFigureDataGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figures 7-9 and the ablations at full scale")
	}
	want := map[string]string{
		"7":        "cb0508bdd7e0f831b58d94002263a6208e1ee917bc23ace59d68e9d9b2f7d5b2",
		"8":        "13ad6fbd193b88543c8b17ab14d3c88f3fe3d247f1135be0a715758db4d031b2",
		"9":        "e9caa76efa7e181549b94fb77c8dfc69aeb5396eaa30938ed719dcf47c8444c7",
		"ablation": "437065d206aac5e848795fcadd333a39b87cb579e428177b121c586372c16a20",
	}
	for _, par := range []int{1, 2} {
		for _, e := range All {
			if want[e.Name] == "" {
				continue
			}
			tab, err := e.Run(Config{Seed: 1, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tab.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			data := buf.String()
			if e.Name == "ablation" {
				data = cutColumns(data, 0, 1, 2, 4)
			}
			if got := sha256Hex([]byte(data)); got != want[e.Name] {
				t.Errorf("p=%d: %s sha256 = %s, want %s\n%s", par, e.CSV, got, want[e.Name], data)
			}
		}
	}
}
