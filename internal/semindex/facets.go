package semindex

import (
	"sort"

	"repro/internal/index"
)

// Facet is one aggregation bucket.
type Facet struct {
	Value string
	Count int
}

// Facets aggregates hit counts over a stored metadata field (event kind,
// match, subject team...), the standard drill-down affordance of a search
// UI: "punishment -> YellowCard (31), RedCard (6), SecondYellowCard (2)".
// Buckets are sorted by descending count, then value. When every hit
// reads from one metaLister (the sharded engine), it reads them all in one
// pass.
func Facets(hits []Hit, metaField string) []Facet {
	counts := map[string]int{}
	count := func(v string) {
		if v != "" {
			counts[v]++
		}
	}
	if l := oneLister(hits); l != nil {
		ids := make([]int, len(hits))
		for i, h := range hits {
			ids[i] = h.DocID
		}
		l.EachMeta(ids, metaField, count)
	} else {
		for _, h := range hits {
			count(h.Meta(metaField))
		}
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

// metaLister is a DocReader that also reads one stored field of many
// documents in one pass, calling fn with each value in ids' order. The
// sharded engine holds its read lock for the pass, so the values come from
// one engine state and no writer queued between two reads stalls the rest.
type metaLister interface {
	EachMeta(ids []int, name string, fn func(value string))
}

// oneLister returns the metaLister every hit reads from, nil when the hits
// read from none or from more than one.
func oneLister(hits []Hit) metaLister {
	if len(hits) == 0 {
		return nil
	}
	l, ok := hits[0].docs.(metaLister)
	if !ok {
		return nil
	}
	for _, h := range hits[1:] {
		if h.docs != hits[0].docs {
			return nil
		}
	}
	return l
}

// Related returns documents similar to the given hit, ranked by shared
// discriminative vocabulary across the ontological fields. The source is
// left out of its own list.
func (s *SemanticIndex) Related(docID int, limit int) []Hit {
	q := s.Index.LikeThisQuery(docID, QueryBoosts, 8, s.Stats)
	if q == nil {
		return nil
	}
	// Over-fetch by one so dropping the source cannot shorten the list.
	fetch := limit
	if fetch > 0 {
		fetch++
	}
	raw := s.Index.Search(index.AnalyzeQuery(q, s.Index.Analyzer(), s.Stats), fetch)
	out := raw[:0]
	for _, h := range raw {
		if h.DocID != docID {
			out = append(out, h)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return s.hits(out)
}
