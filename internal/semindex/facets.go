package semindex

import "sort"

// Facet is one aggregation bucket.
type Facet struct {
	Value string
	Count int
}

// Facets aggregates hit counts over a stored metadata field (event kind,
// match, subject team...), the standard drill-down affordance of a search
// UI: "punishment -> YellowCard (31), RedCard (6), SecondYellowCard (2)".
// Buckets are sorted by descending count, then value.
func Facets(hits []Hit, metaField string) []Facet {
	counts := map[string]int{}
	for _, h := range hits {
		v := h.Meta(metaField)
		if v == "" {
			continue
		}
		counts[v]++
	}
	out := make([]Facet, 0, len(counts))
	for v, c := range counts {
		out = append(out, Facet{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Related returns documents similar to the given hit, ranked by shared
// discriminative vocabulary across the ontological fields. The source is
// left out of its own list.
func (s *SemanticIndex) Related(docID int, limit int) []Hit {
	q := s.Index.LikeThisQuery(docID, QueryBoosts, 8)
	if q == nil {
		return nil
	}
	// Over-fetch by one so dropping the source cannot shorten the list.
	fetch := limit
	if fetch > 0 {
		fetch++
	}
	raw := s.Index.Search(q, fetch)
	out := raw[:0]
	for _, h := range raw {
		if h.DocID != docID {
			out = append(out, h)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return s.withDocs(out)
}
