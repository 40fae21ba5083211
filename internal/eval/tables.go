package eval

import (
	"fmt"
	"strings"

	"repro/internal/crawler"
	"repro/internal/expansion"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// TableRow is one query's scores across index levels.
type TableRow struct {
	Query Query
	Cells map[semindex.Level]Result
}

// Table is a full experiment result.
type Table struct {
	Title  string
	Levels []semindex.Level
	Rows   []TableRow
}

// BuildIndices builds the requested levels over the corpus.
func BuildIndices(b *semindex.Builder, c *soccer.Corpus, levels ...semindex.Level) map[semindex.Level]*semindex.SemanticIndex {
	pages := crawler.PagesFromCorpus(c)
	out := map[semindex.Level]*semindex.SemanticIndex{}
	for _, l := range levels {
		out[l] = b.Build(l, pages)
	}
	return out
}

// Table4 reproduces the paper's Table 4: the ten queries against TRAD,
// BASIC_EXT, FULL_EXT and FULL_INF.
func Table4(c *soccer.Corpus, b *semindex.Builder) Table {
	levels := []semindex.Level{semindex.Trad, semindex.BasicExt, semindex.FullExt, semindex.FullInf}
	return runTable("Table 4: evaluation results (mean average precision)", c, b, levels, PaperQueries())
}

// QueryExpLevel labels the query-expansion column of Table 5. It is not an
// index level: expanded queries run against the TRAD index.
const QueryExpLevel = semindex.Level("QUERY_EXP")

// Table5 reproduces the paper's Table 5: the traditional index, the
// query-expansion baseline (expanded queries over the traditional index)
// and the full inferred semantic index.
func Table5(c *soccer.Corpus, b *semindex.Builder, exp *expansion.Expander) Table {
	indices := BuildIndices(b, c, semindex.Trad, semindex.FullInf)
	j := NewJudge(c)
	t := Table{
		Title:  "Table 5: comparison with query expansion",
		Levels: []semindex.Level{semindex.Trad, QueryExpLevel, semindex.FullInf},
	}
	for _, q := range PaperQueries() {
		row := TableRow{Query: q, Cells: map[semindex.Level]Result{}}
		row.Cells[semindex.Trad] = j.Evaluate(q, indices[semindex.Trad])
		expanded := exp.Expand(q.Keywords)
		row.Cells[QueryExpLevel] = j.AveragePrecision(q, indices[semindex.Trad].Search(expanded, 0))
		row.Cells[semindex.FullInf] = j.Evaluate(q, indices[semindex.FullInf])
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table6 reproduces Table 6: the three phrasal ambiguity queries against
// FULL_INF and PHR_EXP. Daniel (Alves, Barcelona) and Florent (Malouda,
// Chelsea) are the paper's example players; relevance requires the right
// subject/object orientation of the foul.
func Table6(c *soccer.Corpus, b *semindex.Builder) Table {
	queries := PhrasalQueries()
	levels := []semindex.Level{semindex.FullInf, semindex.PhrExp}
	return runTable("Table 6: effects of phrasal expressions", c, b, levels, queries)
}

// PhrasalQueries returns the Section 6 query set.
func PhrasalQueries() []Query {
	foulBy := func(subject string) func(*soccer.Match, *soccer.TruthEvent) bool {
		return func(m *soccer.Match, t *soccer.TruthEvent) bool {
			return (t.Kind == soccer.KindFoul || t.Kind == soccer.KindHandBall) &&
				t.Subject != nil && t.Subject.Short == subject
		}
	}
	foulByTo := func(subject, object string) func(*soccer.Match, *soccer.TruthEvent) bool {
		return func(m *soccer.Match, t *soccer.TruthEvent) bool {
			return t.Kind == soccer.KindFoul &&
				t.Subject != nil && t.Subject.Short == subject &&
				t.Object != nil && t.Object.Short == object
		}
	}
	return []Query{
		{ID: "P-1", Description: "Foul by Daniel", Keywords: "foul by daniel", Relevant: foulBy("Daniel")},
		{ID: "P-2", Description: "Foul by Daniel to Florent", Keywords: "foul by daniel to florent", Relevant: foulByTo("Daniel", "Florent")},
		{ID: "P-3", Description: "Foul by Florent to Daniel", Keywords: "foul by florent to daniel", Relevant: foulByTo("Florent", "Daniel")},
	}
}

func runTable(title string, c *soccer.Corpus, b *semindex.Builder, levels []semindex.Level, queries []Query) Table {
	indices := BuildIndices(b, c, levels...)
	j := NewJudge(c)
	t := Table{Title: title, Levels: levels}
	for _, q := range queries {
		row := TableRow{Query: q, Cells: map[semindex.Level]Result{}}
		for _, l := range levels {
			row.Cells[l] = j.Evaluate(q, indices[l])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Format renders the table in the paper's layout.
func (t Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	fmt.Fprintf(&b, "%-6s", "Query")
	for _, l := range t.Levels {
		fmt.Fprintf(&b, " | %-16s", l)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 6+19*len(t.Levels)) + "\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-6s", row.Query.ID)
		for _, l := range t.Levels {
			r := row.Cells[l]
			fmt.Fprintf(&b, " | %-8s %6s", r.Found(), r.Percent())
		}
		b.WriteString("\n")
	}
	return b.String()
}
