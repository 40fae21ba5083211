package index

import (
	"strings"
	"sync"
)

// Query is a ranked retrieval request. Implementations are TermQuery,
// PhraseQuery, FuzzyQuery, BooleanQuery, MatchAllQuery and what
// MultiFieldQuery, ParseQuery and AnalyzeQuery return.
//
// A query is evaluated in two steps. Binding runs its text through an
// analyzer, once, and fixes the statistics it scores with (nil: each
// index's own counts); the bound query then finds its terms' postings in
// each index it runs against. Search binds on the fly, with nil, so
// callers with one index never see the split; a caller searching many
// indexes that share an analyzer (the sharded engine: shards × segments)
// binds once with AnalyzeQuery and the corpus-wide statistics, and
// searches every index with the result.
type Query interface {
	bind(a Analyzer, cs *CorpusStats) boundQuery
}

// boundQuery is a Query whose text has been analyzed: its terms are in
// index form, and binding it again is the identity.
type boundQuery interface {
	Query
	// scores returns the raw per-document scores of this clause — the
	// exhaustive term-at-a-time path kept as the ExhaustiveSearch escape
	// hatch and the oracle the DAAT kernel is verified against.
	scores(ix *Index) map[int]float64
	// newScorer returns the clause's document-at-a-time cursor (see
	// scorer.go), built in the search's arena. It must reproduce scores
	// exactly: same documents, same floating-point expression order,
	// byte-identical scores.
	newScorer(ix *Index, a *searchArena) scorer
}

// AnalyzeQuery binds q to the analyzer and the statistics: the returned
// query ranks exactly like q on every index that uses a, scored with cs,
// without analyzing text again.
func AnalyzeQuery(q Query, a Analyzer, cs *CorpusStats) Query { return q.bind(a, cs) }

// Hit is one search result.
type Hit struct {
	DocID int
	Score float64
}

// Search evaluates the query and returns hits sorted by descending score
// (docID ascending on ties, for determinism). limit <= 0 returns all hits.
//
// Evaluation is document-at-a-time with Block-Max pruning against the
// top-k threshold (scorer.go): posting lists are walked in docID lockstep,
// a bounded typed min-heap keeps the best limit hits, and once the heap is
// full the weakest kept score becomes a bar that lets the evaluator skip
// clauses, and whole docID windows, whose score bounds prove they cannot
// qualify. The result is byte-identical — documents, scores and tie order
// — to ExhaustiveSearch.
//
// bar, when given and not nil, is a Bar shared with the searches of other
// indexes whose results will be merged with this one at the same limit.
// The search raises it and prunes against it: it may then leave out hits
// of ExhaustiveSearch that score below the bar, which a merged top limit
// cannot use, and keeps the others in order. The bar is ignored at a limit
// <= 0; at most one may be given.
func (ix *Index) Search(q Query, limit int, bar ...*Bar) []Hit {
	var b *Bar
	if len(bar) > 0 && limit > 0 {
		b = bar[0]
	}
	a := acquireArena()
	hits := ix.collect(q.bind(ix.analyzer, nil).newScorer(ix, a), limit, b)
	a.release()
	return hits
}

// collect drains a root scorer into the top limit hits, feeding the
// collector's rising threshold back to it. With a shared bar the threshold
// is the higher of the local one and the bar's, read from the start and
// after every candidate, and a full collector raises the bar in turn.
func (ix *Index) collect(sc scorer, limit int, bar *Bar) []Hit {
	if _, empty := sc.(emptyScorer); empty {
		return nil
	}
	c := acquireCollector(limit)
	pr, canPrune := sc.(prunable)
	th := bar.threshold()
	if th > 0 && canPrune {
		pr.setThreshold(th)
	}
	for d := sc.next(); d != noMoreDocs; d = sc.next() {
		// Tombstoned documents keep their postings until a merge; the
		// collect point is where they stop existing for queries.
		if ix.numDeleted > 0 && ix.deleted[d] {
			continue
		}
		nt := bar.threshold()
		if s := sc.score(); s > th {
			c.collect(d, s)
			if lt := c.threshold(); lt > th {
				bar.raise(lt)
				nt = max(nt, lt)
			}
		}
		if nt > th {
			th = nt
			if canPrune {
				pr.setThreshold(nt)
			}
		}
	}
	hits := c.results()
	c.release()
	return hits
}

// ExhaustiveSearch evaluates the query term-at-a-time over every matching
// document — the seed-era map-accumulator path. It is the baseline arm of
// the cold-path benchmark and the oracle for the DAAT equivalence tests;
// production callers should use Search.
func (ix *Index) ExhaustiveSearch(q Query, limit int) []Hit {
	sc := q.bind(ix.analyzer, nil).scores(ix)
	c := acquireCollector(limit)
	for id, s := range sc {
		if ix.numDeleted > 0 && ix.deleted[id] {
			continue
		}
		if s > 0 {
			c.collect(id, s)
		}
	}
	hits := c.results()
	c.release()
	return hits
}

// TermQuery matches documents containing a single term in one field,
// scored with classic TF-IDF: sqrt(tf) · idf² · fieldBoost · lengthNorm.
type TermQuery struct {
	Field string
	// Term must be in raw text form; it is analyzed against the index's
	// analyzer before lookup.
	Term string
	// Boost scales this clause. Zero is a convenience sentinel meaning
	// "unset" and scores as 1.0 — a TermQuery cannot express "weight this
	// field at nothing". To drop a field entirely, omit the clause;
	// MultiFieldQuery does exactly that for zero-boost FieldBoosts.
	Boost float64
}

func (q TermQuery) bind(a Analyzer, cs *CorpusStats) boundQuery {
	return fieldClause(a, cs, q.Field, a.Analyze(q.Term), q.Boost)
}

// fieldClause binds one raw term's analyzed form to a field. A term the
// analyzer swallows (a pure stopword) matches nothing; one that analyzes
// to several tokens is a phrase, and re-enters as one (which analyzes the
// tokens again, as a phrase does with its terms).
func fieldClause(a Analyzer, cs *CorpusStats, field string, terms []string, boost float64) boundQuery {
	switch len(terms) {
	case 0:
		return noMatch{}
	case 1:
		return &termClause{field: field, term: terms[0], boost: orOne(boost), cs: cs}
	}
	return PhraseQuery{Field: field, Terms: terms, Boost: boost}.bind(a, cs)
}

// orOne resolves the "zero boost means unset" sentinel.
func orOne(boost float64) float64 {
	if boost == 0 {
		return 1
	}
	return boost
}

// noMatch is the bound form of a clause whose text analyzed to nothing.
type noMatch struct{}

func (q noMatch) bind(Analyzer, *CorpusStats) boundQuery { return q }
func (noMatch) scores(*Index) map[int]float64            { return nil }
func (noMatch) newScorer(*Index, *searchArena) scorer    { return emptyScorer{} }

// termClause is a bound TermQuery: one index-form term in one field at a
// resolved boost, scored with cs. It is used by pointer so that a token's
// clauses over several fields can be cut from one allocation.
type termClause struct {
	field, term string
	boost       float64
	cs          *CorpusStats
}

func (q *termClause) bind(Analyzer, *CorpusStats) boundQuery { return q }

func (q *termClause) scores(ix *Index) map[int]float64 {
	fi := ix.fields[q.field]
	if fi == nil {
		return nil
	}
	te := fi.postingsOf(q.term)
	w := ix.sim.weight(ix.termStats(q.cs, q.field, q.term))
	out := make(map[int]float64, len(te.docs))
	for i, d := range te.docs {
		out[int(d)] = w.score(te.freq(i), fi.lengthOf(int(d))) * te.boostAt(i) * q.boost
	}
	return out
}

func (q *termClause) newScorer(ix *Index, a *searchArena) scorer {
	return newTermScorer(ix, a, q.cs, q.field, q.term, q.boost)
}

// PhraseQuery matches documents where the terms occur consecutively in one
// field. Terms are raw tokens, analyzed individually before matching.
type PhraseQuery struct {
	Field string
	Terms []string
	// Boost scales this clause; like TermQuery.Boost, zero means "unset"
	// and scores as 1.0 — it cannot zero-weight the clause.
	Boost float64
}

func (q PhraseQuery) bind(a Analyzer, cs *CorpusStats) boundQuery {
	terms := phraseTerms(a, q.Terms)
	if len(terms) == 0 {
		return noMatch{}
	}
	return &phraseClause{field: q.Field, terms: terms, boost: orOne(q.Boost), cs: cs}
}

// phraseClause is a bound PhraseQuery: index-form terms that must occur
// consecutively in one field, their IDFs read from cs.
type phraseClause struct {
	field string
	terms []string
	boost float64
	cs    *CorpusStats
}

func (q *phraseClause) bind(Analyzer, *CorpusStats) boundQuery { return q }

func (q *phraseClause) scores(ix *Index) map[int]float64 {
	fi := ix.fields[q.field]
	if fi == nil {
		return nil
	}
	// Intersect posting lists positionally.
	first := fi.postingsOf(q.terms[0])
	idfSum := 0.0
	for _, t := range q.terms {
		idfSum += ix.termStats(q.cs, q.field, t).idf()
	}
	out := make(map[int]float64)
	for i, d := range first.docs {
		freq := 0
		for _, start := range first.positionsAt(i) {
			if fi.phraseAt(q.terms, int(d), int(start)) {
				freq++
			}
		}
		if freq > 0 {
			out[int(d)] = phraseScore(freq, idfSum, first.boostAt(i), fi.norm(int(d)), q.boost)
		}
	}
	return out
}

func (q *phraseClause) newScorer(ix *Index, a *searchArena) scorer {
	return newPhraseScorer(ix, a, q.cs, q.field, q.terms, q.boost)
}

// phraseBufPool recycles the join scratch phraseTerms uses, so repeated
// phrase evaluation does not regrow a buffer per call.
var phraseBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// phraseTerms analyzes a phrase's raw terms in ONE analyzer pass: the
// terms are joined with spaces in a pooled scratch buffer and analyzed
// together. Tokenization splits on the same boundaries either way, so the
// token stream is identical to analyzing each term separately — without
// the per-term Analyze allocations and append-regrowth the seed path paid
// on every call.
func phraseTerms(a Analyzer, raw []string) []string {
	switch len(raw) {
	case 0:
		return nil
	case 1:
		return a.Analyze(raw[0])
	}
	bufp := phraseBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	for i, t := range raw {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, t...)
	}
	// string(buf) copies: the analyzer's tokens alias their input string,
	// so they must not share the pooled buffer.
	terms := a.Analyze(string(buf))
	*bufp = buf
	phraseBufPool.Put(bufp)
	return terms
}

// phraseAt reports whether the terms after the first continue, in docID, an
// occurrence of the first at position start. Each term's cursor finds the
// document directly: mapped, that decodes one block instead of
// materializing whole posting lists.
func (fi *fieldIndex) phraseAt(terms []string, docID, start int) bool {
	var c postingsCursor
	for i := 1; i < len(terms); i++ {
		c.init(fi.lookup(terms[i]), true, nil)
		if !c.hasPosition(docID, start+i) {
			return false
		}
	}
	return true
}

// BooleanQuery combines clauses: Must clauses all have to match, MustNot
// clauses exclude documents, Should clauses add score. A document matches
// when every Must matches, no MustNot matches, and (if there are no Must
// clauses) at least one Should matches. Scores are summed and multiplied by
// Lucene's coord factor: matchedClauses/totalScoringClauses.
type BooleanQuery struct {
	Must    []Query
	Should  []Query
	MustNot []Query
	// DisableCoord turns off the coordination factor, which the semantic
	// ranking layer does when it applies its own field weighting.
	DisableCoord bool
}

func (q BooleanQuery) bind(a Analyzer, cs *CorpusStats) boundQuery {
	return &boolClause{
		must: bindAll(a, cs, q.Must), should: bindAll(a, cs, q.Should), mustNot: bindAll(a, cs, q.MustNot),
		coord: !q.DisableCoord,
	}
}

func bindAll(a Analyzer, cs *CorpusStats, clauses []Query) []boundQuery {
	if len(clauses) == 0 {
		return nil
	}
	out := make([]boundQuery, len(clauses))
	for i, c := range clauses {
		out[i] = c.bind(a, cs)
	}
	return out
}

// boolClause is a bound BooleanQuery.
type boolClause struct {
	must, should, mustNot []boundQuery
	coord                 bool
}

func (q *boolClause) bind(Analyzer, *CorpusStats) boundQuery { return q }

func (q *boolClause) scores(ix *Index) map[int]float64 {
	total := len(q.must) + len(q.should)
	if total == 0 {
		return nil
	}
	sum := make(map[int]float64)
	matched := make(map[int]int)
	mustMatched := make(map[int]int)
	for _, c := range q.must {
		for id, s := range c.scores(ix) {
			sum[id] += s
			matched[id]++
			mustMatched[id]++
		}
	}
	for _, c := range q.should {
		for id, s := range c.scores(ix) {
			sum[id] += s
			matched[id]++
		}
	}
	excluded := make(map[int]bool)
	for _, c := range q.mustNot {
		for id := range c.scores(ix) {
			excluded[id] = true
		}
	}
	out := make(map[int]float64, len(sum))
	for id, s := range sum {
		if excluded[id] || mustMatched[id] < len(q.must) {
			continue
		}
		coord := 1.0
		if q.coord {
			coord = float64(matched[id]) / float64(total)
		}
		out[id] = s * coord
	}
	return out
}

func (q *boolClause) newScorer(ix *Index, a *searchArena) scorer {
	return newBooleanScorer(ix, a, q)
}

// MatchAllQuery matches every document with a constant score, useful for
// "list everything" style queries and tests.
type MatchAllQuery struct{}

func (q MatchAllQuery) bind(Analyzer, *CorpusStats) boundQuery { return q }

func (MatchAllQuery) scores(ix *Index) map[int]float64 {
	n := ix.NumDocs()
	out := make(map[int]float64, n)
	for id := 0; id < n; id++ {
		out[id] = 1
	}
	return out
}

func (MatchAllQuery) newScorer(ix *Index, _ *searchArena) scorer {
	if ix.NumDocs() == 0 {
		return emptyScorer{}
	}
	return &allScorer{n: ix.NumDocs(), cur: -1}
}

// FieldBoost pairs a field with a query-time boost, for multi-field keyword
// search.
type FieldBoost struct {
	Field string
	Boost float64
}

// MultiFieldQuery builds the query Lucene's MultiFieldQueryParser would:
// for each whitespace token of the text, a disjunction of term queries over
// the given fields, all combined as Should clauses.
//
// A FieldBoost with Boost 0 drops its field from the query entirely. The
// per-clause queries treat 0 as the "unset, score at 1.0" sentinel, so
// forwarding a zero boost would silently search the field at full weight
// — exactly what the Section 3.6.2 boost-ablation hook
// (semindex.SearchWithBoosts) must not do when it zero-weights a field.
func MultiFieldQuery(text string, fields []FieldBoost) Query {
	searched := make([]FieldBoost, 0, len(fields))
	for _, fb := range fields {
		if fb.Boost != 0 {
			searched = append(searched, fb)
		}
	}
	toks := Tokenize(text)
	clauses := make([]multiFieldQuery, len(toks))
	should := make([]Query, len(toks))
	for i, tok := range toks {
		clauses[i] = multiFieldQuery{text: tok, fields: searched}
		should[i] = &clauses[i]
	}
	return BooleanQuery{Should: should}
}

// multiFieldQuery is one query token — a keyword, a quoted phrase or a
// fuzzy term — searched in one field or across several: the per-token
// clause of MultiFieldQuery and ParseQuery. It is the coord-free
// disjunction of the per-field TermQuery, PhraseQuery or FuzzyQuery, and
// binds to exactly what that disjunction binds to, but analyzes the text
// once instead of once per field. As a boolean clause's Should it is not a
// scorer of its own: newBooleanScorer inlines its per-field clauses as one
// group of the enclosing scorer's leaves. Over a single field the
// disjunction scores 0 + s, the field clause's own score.
type multiFieldQuery struct {
	text          string
	phrase, fuzzy bool
	fields        []FieldBoost
}

func (q *multiFieldQuery) bind(a Analyzer, cs *CorpusStats) boundQuery {
	var terms []string
	if q.phrase {
		terms = phraseTerms(a, strings.Fields(q.text))
	} else {
		terms = a.Analyze(q.text)
	}
	if len(terms) == 0 || (q.fuzzy && len(terms) != 1) {
		return noMatch{}
	}
	per := make([]boundQuery, len(q.fields))
	var single []termClause // a keyword's clauses, cut from one allocation
	if !q.phrase && !q.fuzzy && len(terms) == 1 {
		single = make([]termClause, len(q.fields))
	}
	for i, fb := range q.fields {
		switch {
		case q.phrase:
			per[i] = &phraseClause{field: fb.Field, terms: terms, boost: orOne(fb.Boost), cs: cs}
		case q.fuzzy:
			per[i] = &fuzzyClause{field: fb.Field, target: terms[0], boost: orOne(fb.Boost), cs: cs}
		case single != nil:
			single[i] = termClause{field: fb.Field, term: terms[0], boost: orOne(fb.Boost), cs: cs}
			per[i] = &single[i]
		default:
			per[i] = fieldClause(a, cs, fb.Field, terms, fb.Boost)
		}
	}
	return &boolClause{should: per}
}
