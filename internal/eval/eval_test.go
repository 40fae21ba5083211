package eval

import (
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/expansion"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// paperCorpus is the default 10-match corpus, shared across the heavier
// table tests in this file.
var paperCorpus = soccer.Generate(soccer.DefaultConfig())

func TestPaperQueriesWellFormed(t *testing.T) {
	qs := PaperQueries()
	if len(qs) != 10 {
		t.Fatalf("%d queries", len(qs))
	}
	j := NewJudge(paperCorpus)
	for _, q := range qs {
		if q.ID == "" || q.Keywords == "" || q.Relevant == nil {
			t.Errorf("query %+v malformed", q)
		}
		if n := len(j.RelevantSet(q)); n == 0 {
			t.Errorf("%s has an empty relevant set on the default corpus", q.ID)
		}
	}
}

func TestAveragePrecisionArithmetic(t *testing.T) {
	// Synthetic check of the AP computation using a tiny fabricated case:
	// build a 1-match corpus, search TRAD for a term and hand-verify.
	c := soccer.Generate(soccer.Config{Matches: 2, Seed: 7, NarrationsPerMatch: 40, PaperCoverage: true})
	j := NewJudge(c)
	q := Query{
		ID: "T", Keywords: "offside",
		Relevant: func(m *soccer.Match, tr *soccer.TruthEvent) bool {
			return tr.Kind == soccer.KindOffside
		},
	}
	rel := j.RelevantSet(q)
	if len(rel) == 0 {
		t.Skip("no offsides in tiny corpus")
	}
	si := semindex.NewBuilder().Build(semindex.FullInf, crawler.PagesFromCorpus(c))
	res := j.AveragePrecision(q, si.Search(q.Keywords, 0))
	if res.AP <= 0 || res.AP > 1 {
		t.Errorf("AP = %f out of range", res.AP)
	}
	if res.Relevant != len(rel) {
		t.Errorf("Relevant = %d, want %d", res.Relevant, len(rel))
	}
	if res.RelevantFound > res.Relevant {
		t.Errorf("found %d > relevant %d", res.RelevantFound, res.Relevant)
	}
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	// If all hits are relevant and complete, AP is exactly 1.
	c := soccer.Generate(soccer.Config{Matches: 2, Seed: 7, NarrationsPerMatch: 40, PaperCoverage: true})
	j := NewJudge(c)
	q := PaperQueries()[0] // goals
	si := semindex.NewBuilder().Build(semindex.FullInf, crawler.PagesFromCorpus(c))
	hits := si.Search("goal", 0)
	// Filter the hit list to relevant-only to fabricate a perfect ranking.
	var perfect []semindex.Hit
	rel := j.RelevantSet(q)
	seen := map[TruthRef]bool{}
	for _, h := range hits {
		if ref, ok := j.ResolveHit(h); ok && rel[ref] && !seen[ref] {
			seen[ref] = true
			perfect = append(perfect, h)
		}
	}
	if len(perfect) != len(rel) {
		t.Skipf("index retrieved %d of %d", len(perfect), len(rel))
	}
	res := j.AveragePrecision(q, perfect)
	if res.AP < 0.999 {
		t.Errorf("perfect ranking AP = %f", res.AP)
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{AP: 0.757, Relevant: 7}
	if got := r.Found(); got != "5.3/7" {
		t.Errorf("Found = %q", got)
	}
	if got := r.Percent(); got != "75.7%" {
		t.Errorf("Percent = %q", got)
	}
}

// TestTable4Shape asserts the qualitative findings of the paper's Table 4
// hold on the simulated corpus.
func TestTable4Shape(t *testing.T) {
	tbl := Table4(paperCorpus, semindex.NewBuilder())
	cell := func(q string, l semindex.Level) float64 {
		for _, row := range tbl.Rows {
			if row.Query.ID == q {
				return row.Cells[l].AP
			}
		}
		t.Fatalf("query %s missing", q)
		return 0
	}
	trad, basic, full, inf := semindex.Trad, semindex.BasicExt, semindex.FullExt, semindex.FullInf

	// Q-1..Q-3: narrations omit "goal", so TRAD collapses while every
	// semantic index is near-perfect.
	for _, q := range []string{"Q-1", "Q-2", "Q-3"} {
		if cell(q, trad) > 0.30 {
			t.Errorf("%s TRAD = %.2f, expected collapse", q, cell(q, trad))
		}
		if cell(q, basic) < 0.80 || cell(q, inf) < 0.80 {
			t.Errorf("%s semantic indices too weak: basic=%.2f inf=%.2f", q, cell(q, basic), cell(q, inf))
		}
	}
	// Q-4: punishments are pure inference — everything but FULL_INF is 0.
	for _, l := range []semindex.Level{trad, basic, full} {
		if cell("Q-4", l) != 0 {
			t.Errorf("Q-4 %s = %.2f, want 0", l, cell("Q-4", l))
		}
	}
	if cell("Q-4", inf) < 0.95 {
		t.Errorf("Q-4 FULL_INF = %.2f", cell("Q-4", inf))
	}
	// Q-6 (rule) and Q-10 (classification): FULL_INF dominates.
	if cell("Q-6", inf) < 0.9 || cell("Q-6", inf) <= cell("Q-6", full) {
		t.Errorf("Q-6: inf=%.2f full=%.2f", cell("Q-6", inf), cell("Q-6", full))
	}
	if cell("Q-10", inf) < 0.9 || cell("Q-10", inf) <= cell("Q-10", full)+0.3 {
		t.Errorf("Q-10: inf=%.2f full=%.2f", cell("Q-10", inf), cell("Q-10", full))
	}
	// Q-7: property-hierarchy inference gives FULL_INF a wide margin.
	if cell("Q-7", inf) < cell("Q-7", full)+0.2 {
		t.Errorf("Q-7: inf=%.2f full=%.2f", cell("Q-7", inf), cell("Q-7", full))
	}
	// Q-8: all indices roughly equal (single-name query).
	if diff := cell("Q-8", inf) - cell("Q-8", trad); diff < -0.15 {
		t.Errorf("Q-8 FULL_INF below TRAD by %.2f", -diff)
	}
	// The MAP ladder is monotone: TRAD <= BASIC_EXT <= FULL_EXT <= FULL_INF.
	for _, l := range tbl.Levels {
		if tbl.MAP(l) < tbl.MAP(trad) || tbl.MAP(l) > tbl.MAP(inf) {
			t.Errorf("%v MAP %.3f outside [TRAD %.3f, FULL_INF %.3f]", l, tbl.MAP(l), tbl.MAP(trad), tbl.MAP(inf))
		}
	}
	if tbl.MAP(basic) > tbl.MAP(full) {
		t.Errorf("BASIC_EXT MAP %.3f > FULL_EXT MAP %.3f", tbl.MAP(basic), tbl.MAP(full))
	}
}

// TestTable5Shape asserts Section 5's finding: query expansion lands
// between TRAD and FULL_INF overall, improving the goal/punishment queries
// but never reaching semantic indexing.
func TestTable5Shape(t *testing.T) {
	tbl := Table5(paperCorpus, semindex.NewBuilder(), expansion.New())
	mapTrad := tbl.MAP(semindex.Trad)
	mapExp := tbl.MAP(QueryExpLevel)
	mapInf := tbl.MAP(semindex.FullInf)
	if !(mapTrad < mapExp && mapExp < mapInf) {
		t.Errorf("MAP order TRAD=%.3f QUERY_EXP=%.3f FULL_INF=%.3f", mapTrad, mapExp, mapInf)
	}
	// Q-1 and Q-4 are the paper's showcase improvements.
	for _, row := range tbl.Rows {
		switch row.Query.ID {
		case "Q-1", "Q-4":
			if row.Cells[QueryExpLevel].AP <= row.Cells[semindex.Trad].AP {
				t.Errorf("%s: expansion did not improve TRAD", row.Query.ID)
			}
			if row.Cells[QueryExpLevel].AP >= row.Cells[semindex.FullInf].AP {
				t.Errorf("%s: expansion matched semantic indexing", row.Query.ID)
			}
		}
	}
}

// TestTable6Shape asserts Section 6's finding: phrasal expressions resolve
// the subject/object structural ambiguity completely.
func TestTable6Shape(t *testing.T) {
	tbl := Table6(paperCorpus, semindex.NewBuilder())
	for _, row := range tbl.Rows {
		if got := row.Cells[semindex.PhrExp].AP; got < 0.999 {
			t.Errorf("%s PHR_EXP = %.3f, want 1.0", row.Query.ID, got)
		}
	}
	// FULL_INF must fail to discriminate on at least one orientation.
	confused := false
	for _, row := range tbl.Rows {
		if row.Cells[semindex.FullInf].AP < 0.999 {
			confused = true
		}
	}
	if !confused {
		t.Error("FULL_INF resolved all phrasal ambiguities; Table 6 would be vacuous")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := Table6(paperCorpus, semindex.NewBuilder())
	s := tbl.Format()
	for _, want := range []string{"Table 6", "P-1", "FULL_INF", "PHR_EXP", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
}

func TestJudgeResolveMiss(t *testing.T) {
	j := NewJudge(paperCorpus)
	if _, ok := j.ResolveHit(semindex.Hit{}); ok {
		t.Error("empty hit resolved")
	}
}
