package semindex

import (
	"strings"

	"repro/internal/index"
)

// Synonyms is the query-time synonym layer Section 7 sketches ("expanding
// the index terms with WordNet synonyms ... can be achieved easily with
// semantic indexing"). Applied at query time rather than index time, each
// query token expands to a weighted disjunction over its synonym set, so
// folk vocabulary ("keeper", "spot kick", "booking") reaches the
// ontological fields without re-indexing.
type Synonyms map[string][]string

// SoccerSynonyms is a small curated synonym table for the domain, standing
// in for the WordNet synsets the paper references.
var SoccerSynonyms = Synonyms{
	"keeper":     {"goalkeeper"},
	"goalie":     {"goalkeeper"},
	"booking":    {"yellow", "card", "booked"},
	"sending":    {"red", "card"},
	"spot":       {"penalty"},
	"equaliser":  {"goal"},
	"equalizer":  {"goal"},
	"strike":     {"goal", "shot"},
	"netted":     {"scores"},
	"handball":   {"hand", "ball"},
	"defender":   {"defence"},
	"defenders":  {"defence"},
	"infraction": {"foul"},
	"whistle":    {"referee"},
	"sub":        {"substitution"},
	"subbed":     {"substitution", "replaces"},
}

// synonymWeight discounts synonym matches relative to the literal term.
const synonymWeight = 0.7

// SearchWithSynonyms runs a keyword query where every token also matches
// its synonyms at reduced weight, under the index level's standard boosts.
func (s *SemanticIndex) SearchWithSynonyms(query string, limit int, syn Synonyms) []Hit {
	boosts := QueryBoosts
	if s.Level == Trad {
		boosts = TradBoosts
	}
	var should []index.Query
	for _, tok := range index.Tokenize(strings.ToLower(query)) {
		var perToken []index.Query
		for _, fb := range boosts {
			perToken = append(perToken, index.TermQuery{Field: fb.Field, Term: tok, Boost: fb.Boost})
			for _, alt := range syn[tok] {
				perToken = append(perToken, index.TermQuery{
					Field: fb.Field, Term: alt, Boost: fb.Boost * synonymWeight,
				})
			}
		}
		should = append(should, index.BooleanQuery{Should: perToken, DisableCoord: true})
	}
	return s.hits(s.Index.Search(index.BooleanQuery{Should: should}, limit))
}
