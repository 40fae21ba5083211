package semindex

import (
	"strings"
	"unicode/utf8"

	"repro/internal/index"
)

// Suggest proposes a corrected query when some token matches nothing in
// any searched field but has a close neighbour (edit distance 1) in the
// index vocabulary — the "did you mean" affordance keyword interfaces need
// for misspelled player names. It returns "" when the query needs no
// correction or none can be found.
func (s *SemanticIndex) Suggest(query string) string {
	boosts := QueryBoosts
	if s.Level == Trad {
		boosts = TradBoosts
	}
	return CorrectQuery(s.Index.Analyzer(), boosts, query, s.Index.DocFreq, s.Index.Neighbours)
}

// CorrectQuery is the spelling-correction core shared by the monolithic
// index and the sharded engine, parameterized by where the vocabulary
// lives: docFreq reports a term's document frequency in a field, and
// neighbours lists a field's terms within edit distance 1 of a term, the
// term itself left out, in ascending order. The monolith passes its local
// index (Index.Neighbours); the engine passes its exchanged corpus-wide
// statistics and the union of its sub-indexes' neighbours, so both produce
// identical corrections for identical vocabularies — a guarantee
// TestSuggestEquivalence holds the two callers to.
//
// A token is corrected when its analyzed form is longer than one rune and
// has no postings in any searched field; the replacement is the highest-df
// neighbour, scanning fields in boost order and neighbours in
// lexicographic order with strictly-greater df wins, which fixes the
// tie-breaks.
func CorrectQuery(a index.Analyzer, boosts []index.FieldBoost, query string,
	docFreq func(field, term string) int, neighbours func(field, term string) []string) string {
	tokens := index.Tokenize(strings.ToLower(query))
	corrected := make([]string, len(tokens))
	changed := false
	for i, tok := range tokens {
		corrected[i] = tok
		analyzed := a.Analyze(tok)
		if len(analyzed) == 0 {
			continue // pure stopword: nothing to correct
		}
		target := analyzed[0]
		if utf8.RuneCountInString(target) == 1 {
			// Every one-rune term is one substitution away: the
			// "correction" would be the vocabulary's most frequent one.
			continue
		}
		matches := false
		for _, fb := range boosts {
			if docFreq(fb.Field, target) > 0 {
				matches = true
				break
			}
		}
		if matches {
			continue
		}
		if alt := nearestTerm(target, boosts, docFreq, neighbours); alt != "" {
			corrected[i] = alt
			changed = true
		}
	}
	if !changed {
		return ""
	}
	return strings.Join(corrected, " ")
}

// nearestTerm finds the highest-df vocabulary term within edit distance 1
// of the analyzed target, scanning the subject/object player fields first
// (names are where typos happen) and then the remaining fields.
func nearestTerm(target string, boosts []index.FieldBoost,
	docFreq func(field, term string) int, neighbours func(field, term string) []string) string {
	best := ""
	bestDF := 0
	for _, fb := range boosts {
		for _, term := range neighbours(fb.Field, target) {
			if df := docFreq(fb.Field, term); df > bestDF {
				bestDF = df
				best = term
			}
		}
	}
	return best
}
