package semindex

import (
	"strings"

	"repro/internal/index"
)

// Hit is one ranked search result. It carries no stored document: Doc
// and Meta read it, by DocID, from the reader that ranked it, only when
// called — the caller fetches stored fields, as in Lucene. The zero Hit
// reads as a document that is gone.
type Hit struct {
	DocID int
	Score float64
	docs  DocReader
}

// DocReader reads stored documents by the docIDs its hits carry: an
// index.Index by local docID, the sharded engine by global docID. Doc
// returns nil and Meta "" for a document the reader no longer holds.
type DocReader interface {
	Doc(id int) *index.Document
	Meta(id int, name string) string
}

// NewHit returns the hit on document id of r at score.
func NewHit(r DocReader, id int, score float64) Hit {
	return Hit{DocID: id, Score: score, docs: r}
}

// Doc returns the hit's stored document, decoded when called (see
// index.Index.Doc), or nil when its reader no longer holds it.
func (h Hit) Doc() *index.Document {
	if h.docs == nil {
		return nil
	}
	return h.docs.Doc(h.DocID)
}

// Meta reads one stored field of the hit's document (see
// index.Index.Meta): without decoding the document on a heap index; "" when
// the reader no longer holds it.
func (h Hit) Meta(field string) string {
	if h.docs == nil {
		return ""
	}
	return h.docs.Meta(h.DocID, field)
}

// Search runs a keyword query against the index with the level's ranking:
// TRAD searches only the narration text; the semantic levels search all
// ontological fields under the custom boosts of Section 3.6.2; PHR_EXP
// additionally recognizes the phrasal expressions of Section 6 ("by X",
// "of X", "to X") and routes them to the subject/object phrase fields.
// limit <= 0 returns every match.
//
// The limit is pushed down into the index kernel, not applied as a
// truncation here: a positive limit is what lets the kernel prune against
// its top-k threshold (see index.Index.Search), so asking for the top 10
// costs far less than ranking every match and slicing.
func (s *SemanticIndex) Search(query string, limit int) []Hit {
	q := Prepare(s.Level, s.Index.Analyzer(), s.Index.HasField, query, s.Stats)
	return s.hits(q.Search(s.Index, limit, nil))
}

// hits wraps ranked hits as Hits that read their documents from the index.
func (s *SemanticIndex) hits(raw []index.Hit) []Hit {
	hits := make([]Hit, len(raw))
	for i, h := range raw {
		hits[i] = NewHit(s.Index, h.DocID, h.Score)
	}
	return hits
}

// PreparedQuery is a keyword query routed for a level, analyzed and bound
// to the statistics it ranks with: what is left per index is finding its
// terms' postings. Every index of one level that shares the analyzer can
// run it, which is how the sharded engine parses and analyzes a search's
// text once for all its shards and segments.
type PreparedQuery struct {
	bound index.Query
}

// Prepare routes and analyzes query for an index of the given level and
// counts it as one query of that level (semindex_queries_total), however
// many indexes then run it. hasField says whether a "name:" prefix names a
// field the searched corpus holds (see hasAdvancedSyntax). cs is the
// corpus-wide statistics every index running the query scores with; nil
// scores each with its own counts.
func Prepare(level Level, a index.Analyzer, hasField func(name string) bool, query string, cs *index.CorpusStats) PreparedQuery {
	queryCounter(level).Inc()
	advanced := hasAdvancedSyntax(query, hasField)
	return PreparedQuery{bound: index.AnalyzeQuery(routeQuery(level, advanced, query), a, cs)}
}

// Search ranks ix's documents for the prepared query; hits carry ix's
// docIDs only (Index.Doc fetches a document). bar, when not nil, is the
// top-k bar shared with the other indexes whose hits one merge combines
// (see index.Bar); nil means none.
func (q PreparedQuery) Search(ix *index.Index, limit int, bar *index.Bar) []index.Hit {
	return ix.Search(q.bound, limit, bar)
}

// ExhaustiveSearch ranks like Search through the term-at-a-time reference
// path (index.Index.ExhaustiveSearch) instead of the pruned kernel.
func (q PreparedQuery) ExhaustiveSearch(ix *index.Index, limit int) []index.Hit {
	return ix.ExhaustiveSearch(q.bound, limit)
}

// routeQuery builds the level's query for the text; advanced says whether
// the text uses parser-level operators (see hasAdvancedSyntax).
func routeQuery(level Level, advanced bool, query string) index.Query {
	boosts := QueryBoosts
	if level == Trad {
		boosts = TradBoosts
	}
	// Advanced Lucene-style syntax (quoted phrases, +/- operators, field:
	// prefixes, fuzzy~ terms) routes through the full query parser; plain
	// keyword queries take the level's standard path.
	if advanced {
		if q, err := index.ParseQuery(query, boosts); err == nil {
			return q
		}
	}
	if level == PhrExp {
		return phrasalQuery(query)
	}
	return index.MultiFieldQuery(query, boosts)
}

// hasAdvancedSyntax reports whether the query uses parser-level operators.
// Punctuation alone is not enough: a ':' only signals field syntax when
// the prefix before it names a field the corpus actually holds, and a '~'
// only signals a fuzzy term as a token suffix. Otherwise plain keyword
// queries carrying scoreline or time tokens ("2:1 goal", "19:30 kickoff")
// would be parsed as field-prefix queries — the nonexistent field "2"
// matches nothing, its tokens drop out of scoring, and the ranking
// silently changes.
func hasAdvancedSyntax(query string, hasField func(string) bool) bool {
	if strings.Contains(query, `"`) ||
		strings.HasPrefix(query, "+") || strings.HasPrefix(query, "-") ||
		strings.Contains(query, " +") || strings.Contains(query, " -") {
		return true
	}
	for _, tok := range strings.Fields(query) {
		if strings.HasSuffix(tok, "~") {
			return true
		}
		if i := strings.IndexByte(tok, ':'); i > 0 && hasField(tok[:i]) {
			return true
		}
	}
	return false
}

// phrasalQuery splits the query into phrasal pairs and plain tokens.
// "foul by daniel to florent" becomes the plain token "foul" plus the
// fused phrase terms bydaniel (subject field) and toflorent (object
// field). Plain tokens go through the ordinary multi-field path.
func phrasalQuery(query string) index.Query {
	tokens := index.Tokenize(strings.ToLower(query))
	var plain []string
	var clauses []index.Query
	for i := 0; i < len(tokens); i++ {
		tok := tokens[i]
		if i+1 < len(tokens) {
			switch tok {
			case "by", "of":
				clauses = append(clauses, index.TermQuery{
					Field: FieldSubjPhrase,
					Term:  tok + tokens[i+1],
					Boost: 6.0,
				})
				i++
				continue
			case "to":
				clauses = append(clauses, index.TermQuery{
					Field: FieldObjPhrase,
					Term:  tok + tokens[i+1],
					Boost: 6.0,
				})
				i++
				continue
			}
		}
		plain = append(plain, tok)
	}
	if len(plain) > 0 {
		clauses = append(clauses, index.MultiFieldQuery(strings.Join(plain, " "), QueryBoosts))
	}
	if len(clauses) == 1 {
		return clauses[0]
	}
	return index.BooleanQuery{Should: clauses, DisableCoord: true}
}

// SearchWithBoosts runs a keyword query under caller-supplied field
// weights instead of the level's defaults — the hook the boost-ablation
// experiment uses to show what the Section 3.6.2 ranking buys.
func (s *SemanticIndex) SearchWithBoosts(query string, limit int, boosts []index.FieldBoost) []Hit {
	return s.hits(s.Index.Search(index.MultiFieldQuery(query, boosts), limit))
}
