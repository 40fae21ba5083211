package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expansion"
	"repro/internal/semindex"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from the tables this tree computes")

// TestTablesGolden pins every AP cell and every column's MAP of the
// paper's Tables 4–6 on the default corpus to the last digit. The shape
// tests state the paper's claims; this one makes any ranking change that
// moves one of the paper's numbers show in the diff of
// testdata/tables.golden, which moves only with -update.
func TestTablesGolden(t *testing.T) {
	b := semindex.NewBuilder()
	tables := []struct {
		name string
		tbl  Table
	}{
		{"Table4", Table4(paperCorpus, b)},
		{"Table5", Table5(paperCorpus, b, expansion.New())},
		{"Table6", Table6(paperCorpus, b)},
	}
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var sb strings.Builder
	for _, tb := range tables {
		for _, row := range tb.tbl.Rows {
			for _, l := range tb.tbl.Levels {
				sb.WriteString(tb.name + " " + row.Query.ID + " " + string(l) + " " + num(row.Cells[l].AP) + "\n")
			}
		}
		for _, l := range tb.tbl.Levels {
			sb.WriteString(tb.name + " MAP " + string(l) + " " + num(tb.tbl.MAP(l)) + "\n")
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("paper tables changed:\n got:\n%s want:\n%s", got, want)
	}
}
