package core

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// TestScaleSoak runs the entire pipeline over a corpus an order of
// magnitude larger than the paper's and re-checks the load-bearing
// invariants: the knowledge base stays consistent, every evaluation query
// keeps a non-empty relevant set, and FULL_INF keeps its retrieval quality.
// Skipped under -short.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("scale soak skipped in -short mode")
	}
	c := soccer.Generate(soccer.Config{Matches: 100, Seed: 13, NarrationsPerMatch: 118, PaperCoverage: true})
	narrations := 0
	for _, m := range c.Matches {
		narrations += len(m.Narrations)
	}
	if narrations < 10000 {
		t.Fatalf("corpus too small: %s", c.Stats())
	}
	s := New()
	s.LoadPages(crawler.PagesFromCorpus(c))

	if v := s.CheckConsistency(); len(v) != 0 {
		t.Fatalf("%d violations at scale; first: %v", len(v), v[0])
	}

	si := s.BuildIndex(semindex.FullInf)
	if si.Index.NumDocs() < 10000 {
		t.Errorf("index has %d docs", si.Index.NumDocs())
	}

	j := eval.NewJudge(c)
	for _, q := range eval.PaperQueries() {
		res := j.Evaluate(q, si)
		if res.Relevant == 0 {
			t.Errorf("%s: empty relevant set at scale", q.ID)
			continue
		}
		// The inference-dependent queries must stay strong at 10x scale.
		switch q.ID {
		case "Q-4", "Q-10":
			if res.AP < 0.9 {
				t.Errorf("%s: AP %.3f at scale", q.ID, res.AP)
			}
		case "Q-1":
			if res.AP < 0.9 {
				t.Errorf("Q-1: AP %.3f at scale", res.AP)
			}
		}
	}
}
