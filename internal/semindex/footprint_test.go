package semindex_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/loadgen"
	"repro/internal/semindex"
)

// routedFootprint is the footprint as it was derived while it kept its own
// copy of the query routing: TRAD expands over the narration field, PHR_EXP
// fuses "by/of/to X" pairs into the phrase fields, everything else expands
// over the standard query boosts; any token that could be parser syntax on
// some index makes the footprint unknowable. It is the reference the
// footprint read off the prepared query is held to.
func routedFootprint(level semindex.Level, an index.Analyzer, query string) ([]index.FieldTerm, bool) {
	if strings.Contains(query, `"`) ||
		strings.HasPrefix(query, "+") || strings.HasPrefix(query, "-") ||
		strings.Contains(query, " +") || strings.Contains(query, " -") {
		return nil, false
	}
	for _, tok := range strings.Fields(query) {
		if strings.HasSuffix(tok, "~") || strings.IndexByte(tok, ':') > 0 {
			return nil, false
		}
	}
	var out []index.FieldTerm
	addMulti := func(text string, boosts []index.FieldBoost) {
		for _, tok := range index.Tokenize(text) {
			for _, term := range an.Analyze(tok) {
				for _, fb := range boosts {
					if fb.Boost != 0 {
						out = append(out, index.FieldTerm{Field: fb.Field, Term: term})
					}
				}
			}
		}
	}
	switch level {
	case semindex.Trad:
		addMulti(query, semindex.TradBoosts)
	case semindex.PhrExp:
		tokens := index.Tokenize(strings.ToLower(query))
		var plain []string
		for i := 0; i < len(tokens); i++ {
			tok := tokens[i]
			if i+1 < len(tokens) {
				var field string
				switch tok {
				case "by", "of":
					field = semindex.FieldSubjPhrase
				case "to":
					field = semindex.FieldObjPhrase
				}
				if field != "" {
					for _, term := range an.Analyze(tok + tokens[i+1]) {
						out = append(out, index.FieldTerm{Field: field, Term: term})
					}
					i++
					continue
				}
			}
			plain = append(plain, tok)
		}
		if len(plain) > 0 {
			addMulti(strings.Join(plain, " "), semindex.QueryBoosts)
		}
	default:
		addMulti(query, semindex.QueryBoosts)
	}
	return out, true
}

// TestPreparedFootprintMatchesBoundQuery checks, for the repository
// benchmark's four query classes and some phrasal and degenerate keyword
// queries at all five levels, that the footprint read off the query that
// runs is the footprint the separately maintained routing used to derive:
// the same (field, term) pairs, and the same verdict on which queries have
// none to give.
func TestPreparedFootprintMatchesBoundQuery(t *testing.T) {
	gen := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
	pages := make([]*crawler.MatchPage, 3)
	for i := range pages {
		p, err := gen.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = p
	}
	queries := []string{
		"foul by daniel to florent", "goal of messi", "the of", "2:1 goal", "by", "",
		"yellow card barcelona", "Running GOALS the", "goal-kick taken",
	}
	mix := map[loadgen.Class]int{loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1}
	for _, q := range loadgen.GenerateQueries(loadgen.VocabFromUniverse(gen.Universe()), mix, 200, 20100301) {
		queries = append(queries, q.Text)
	}
	sorted := func(fp []index.FieldTerm) []index.FieldTerm {
		fp = append([]index.FieldTerm(nil), fp...)
		sort.Slice(fp, func(i, j int) bool {
			if fp[i].Field != fp[j].Field {
				return fp[i].Field < fp[j].Field
			}
			return fp[i].Term < fp[j].Term
		})
		return fp
	}
	b := semindex.NewBuilder()
	for _, level := range semindex.Levels {
		si := b.Build(level, pages)
		known := 0
		for _, q := range queries {
			got, ok := si.Prepare(q).Footprint()
			want, wantOK := routedFootprint(level, si.Index.Analyzer(), q)
			if ok != wantOK {
				t.Fatalf("%s %q: footprint known = %v, the routing says %v", level, q, ok, wantOK)
			}
			if !reflect.DeepEqual(sorted(got), sorted(want)) {
				t.Fatalf("%s %q:\ngot:  %v\nwant: %v", level, q, got, want)
			}
			if ok && len(got) > 0 {
				known++
			}
		}
		if known < len(queries)/4 {
			t.Fatalf("%s: only %d of %d queries have a footprint; the comparison covers little", level, known, len(queries))
		}
	}
}
