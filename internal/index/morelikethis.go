package index

// LikeThisQuery builds a query from the most discriminative terms of an
// existing document — the "related events" feature of a search UI. Terms
// are ranked by IDF within the given fields, read from cs (nil: the
// index's own counts); the top maxTerms become a Should-disjunction over
// the same fields.
//
// The source document matches its own query, and callers drop it from the
// hits, fetching one more: a query fanned out across index partitions
// cannot exclude it by local docID, which another partition may reuse.
// It returns nil when the document has no usable terms.
func (ix *Index) LikeThisQuery(docID int, fields []FieldBoost, maxTerms int, cs *CorpusStats) Query {
	d := ix.sourceDoc(docID)
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
			st := ix.termStats(cs, fb.Field, term)
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
