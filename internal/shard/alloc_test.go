package shard

import (
	"context"
	"testing"

	"repro/internal/semindex"
)

// TestSearchAllocationCeiling bounds what one cold Engine.Search allocates
// on a two-shard engine at limit 10, per query class. The ceilings sit
// about a third above the measured figures (keyword 107, phrase 111, fuzzy
// 120 at the commit that introduced them; 115, 339 and 289 before it, when
// every shard re-parsed the text and every field clause re-analyzed it),
// so a change that brings back per-shard parsing, per-field analysis or a
// vocabulary copy per fuzzy clause fails here before it shows in the
// benchmark.
func TestSearchAllocationCeiling(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	opts := SearchOptions{Limit: 10, NoCache: true}
	for _, c := range []struct {
		class, query string
		ceiling      float64
	}{
		{"keyword", "messi barcelona goal", 140},
		{"phrase", `"yellow card" barcelona`, 145},
		{"fuzzy", "mesi~ goal", 160},
	} {
		res, err := e.Search(context.Background(), c.query, opts)
		if err != nil || len(res.Hits) == 0 {
			t.Fatalf("%s %q: %d hits, err %v", c.class, c.query, len(res.Hits), err)
		}
		got := testing.AllocsPerRun(50, func() { e.Search(context.Background(), c.query, opts) })
		if got > c.ceiling {
			t.Errorf("%s %q: %v allocations per search, ceiling %v", c.class, c.query, got, c.ceiling)
		}
	}
}
