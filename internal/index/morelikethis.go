package index

// MoreLikeThis builds a query from the most discriminative terms of an
// existing document — the "related events" feature of a search UI. Terms
// are ranked by TF-IDF within the given fields; the top maxTerms become a
// Should-disjunction over the same fields.
//
// It returns nil when the document has no usable terms.
func (ix *Index) MoreLikeThis(docID int, fields []FieldBoost, maxTerms int) Query {
	q := ix.LikeThisQuery(docID, fields, maxTerms)
	if q == nil {
		return nil
	}
	bq := q.(BooleanQuery)
	bq.MustNot = []Query{docIDQuery{docID}}
	return bq
}

// LikeThisQuery is MoreLikeThis without the source-document exclusion.
// Callers that fan the query out across index partitions (where another
// partition may reuse the same local docID) filter the source from the
// merged results themselves.
func (ix *Index) LikeThisQuery(docID int, fields []FieldBoost, maxTerms int) Query {
	d := ix.Doc(docID)
	if d == nil {
		return nil
	}
	if maxTerms <= 0 {
		maxTerms = 8
	}
	type scored struct {
		term  string
		score float64
	}
	// Select the maxTerms most discriminative terms with the same bounded
	// heap the search kernel uses — no full sort of the candidate set.
	top := bounded[scored]{k: maxTerms, worse: func(a, b scored) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.term > b.term
	}}
	seen := map[string]bool{}
	for _, fb := range fields {
		text := d.Get(fb.Field)
		if text == "" {
			continue
		}
		for _, term := range ix.analyzer.Analyze(text) {
			if seen[term] {
				continue
			}
			seen[term] = true
			st := ix.termStats(fb.Field, term)
			if st.df <= 0 {
				continue
			}
			// Skip terms in more than a third of documents (but never below
			// a floor of 5, so tiny indices keep their vocabulary): such
			// terms carry no signal and would drag in everything.
			ceiling := st.numDocs / 3
			if ceiling < 5 {
				ceiling = 5
			}
			if st.df > ceiling {
				continue
			}
			top.push(scored{term: term, score: st.idf()})
		}
	}
	candidates := top.sorted()
	if len(candidates) == 0 {
		return nil
	}
	var should []Query
	for _, c := range candidates {
		for _, fb := range fields {
			should = append(should, TermQuery{Field: fb.Field, Term: c.term, Boost: fb.Boost})
		}
	}
	return BooleanQuery{Should: should, DisableCoord: true}
}

// docIDQuery matches exactly one document, used to exclude the source doc
// from its own related-results list.
type docIDQuery struct{ id int }

func (q docIDQuery) bind(Analyzer) boundQuery { return q }

func (q docIDQuery) scores(ix *Index) map[int]float64 {
	if q.id < 0 || q.id >= ix.NumDocs() {
		return nil
	}
	return map[int]float64{q.id: 1}
}

func (q docIDQuery) newScorer(ix *Index, _ *searchArena) scorer {
	if q.id < 0 || q.id >= ix.NumDocs() {
		return emptyScorer{}
	}
	return &singleDocScorer{id: q.id, cur: -1}
}
