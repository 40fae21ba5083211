package eval

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

func TestWriteTrecRunFormat(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 2, Seed: 42, NarrationsPerMatch: 50, PaperCoverage: true})
	si := semindex.NewBuilder().Build(semindex.FullInf, crawler.PagesFromCorpus(c))
	var buf bytes.Buffer
	if err := WriteTrecRun(&buf, "fullinf", PaperQueries(), si, 10); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 6 {
			t.Fatalf("line %d has %d fields: %q", lines, len(fields), sc.Text())
		}
		if fields[1] != "Q0" || fields[5] != "fullinf" {
			t.Errorf("malformed line: %q", sc.Text())
		}
		if !strings.HasPrefix(fields[0], "Q-") {
			t.Errorf("qid = %q", fields[0])
		}
		if !strings.Contains(fields[2], "#") {
			t.Errorf("docno = %q", fields[2])
		}
	}
	if lines == 0 {
		t.Fatal("empty run file")
	}
}
