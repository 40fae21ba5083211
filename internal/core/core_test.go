package core

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/rdf"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

func testSystem(t testing.TB, matches int) *System {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: matches, Seed: 42, NarrationsPerMatch: 60, PaperCoverage: matches >= 2})
	s := New()
	s.LoadPages(crawler.PagesFromCorpus(c))
	return s
}

func TestCrawlFromEndToEnd(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 3, Seed: 1, NarrationsPerMatch: 40})
	srv := httptest.NewServer(crawler.NewServer(c))
	defer srv.Close()

	s := New()
	if _, err := s.CrawlFrom(context.Background(), srv.URL); err != nil {
		t.Fatalf("CrawlFrom: %v", err)
	}
	if len(s.Pages()) != 3 {
		t.Fatalf("%d pages", len(s.Pages()))
	}
	hits := s.Search("corner", 5)
	if len(hits) == 0 {
		t.Error("search returned nothing after crawl")
	}
}

// TestCrawlFromSurvivesFaults: the façade crawls with the hardened
// client, so a faulty origin costs retries — recorded in the returned
// report — not pages.
func TestCrawlFromSurvivesFaults(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 3, Seed: 1, NarrationsPerMatch: 40})
	srv := httptest.NewServer(crawler.WithFaults(crawler.NewServer(c),
		crawler.FaultConfig{Seed: 1, DropRate: 0.2, ErrorRate: 0.1}))
	defer srv.Close()

	s := New()
	rep, err := s.CrawlFrom(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("CrawlFrom under faults: %v", err)
	}
	if len(s.Pages()) != 3 {
		t.Fatalf("%d pages recovered, want 3", len(s.Pages()))
	}
	if rep.Degraded() {
		t.Fatalf("CrawlFrom report = %v", rep)
	}
	if rep.Stats.Retries == 0 {
		t.Error("no retries recorded despite injected faults")
	}
}

func TestCrawlFromError(t *testing.T) {
	s := New()
	if _, err := s.CrawlFrom(context.Background(), "http://127.0.0.1:1"); err == nil {
		t.Error("CrawlFrom of dead endpoint succeeded")
	}
}

func TestSearchPaperQuery(t *testing.T) {
	s := testSystem(t, 2)
	hits := s.Search("messi barcelona goal", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if !strings.Contains(hits[0].Meta(semindex.MetaSubject), "Messi") {
		t.Errorf("top hit subject = %q", hits[0].Meta(semindex.MetaSubject))
	}
}

func TestSearchLevelCaching(t *testing.T) {
	s := testSystem(t, 1)
	a := s.BuildIndex(semindex.Trad)
	b := s.BuildIndex(semindex.Trad)
	if a != b {
		t.Error("BuildIndex did not cache")
	}
	if len(s.SearchLevel(semindex.Trad, "corner", 2)) == 0 {
		t.Error("TRAD search empty")
	}
}

func TestPopulateAndInferCaching(t *testing.T) {
	s := testSystem(t, 1)
	page := s.Pages()[0]
	if s.Populate(page) != s.Populate(page) {
		t.Error("Populate did not cache")
	}
	r1 := s.Infer(page)
	r2 := s.Infer(page)
	if r1.Model != r2.Model {
		t.Error("Infer did not cache")
	}
	if r1.Model.Graph.Len() <= s.Populate(page).Model.Graph.Len() {
		t.Error("inference added nothing")
	}
}

func TestCheckConsistency(t *testing.T) {
	s := testSystem(t, 2)
	if v := s.CheckConsistency(); len(v) != 0 {
		t.Errorf("violations on generated corpus: %v", v[:min(3, len(v))])
	}
}

func TestWriteModelTurtle(t *testing.T) {
	s := testSystem(t, 1)
	page := s.Pages()[0]
	var plain, inferred bytes.Buffer
	if err := s.WriteModel(&plain, page, false); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteModel(&inferred, page, true); err != nil {
		t.Fatal(err)
	}
	if plain.Len() == 0 || inferred.Len() <= plain.Len() {
		t.Errorf("turtle sizes: plain=%d inferred=%d", plain.Len(), inferred.Len())
	}
	if !strings.Contains(plain.String(), "@prefix pre:") {
		t.Error("turtle missing prefix header")
	}
}

func TestWriteModelTurtleRoundTripLossless(t *testing.T) {
	// The per-match OWL files of pipeline steps 5 and 7 must survive disk:
	// serialize every model (plain and inferred) and parse it back, triple
	// for triple.
	s := testSystem(t, 2)
	for _, page := range s.Pages() {
		for _, inferred := range []bool{false, true} {
			var buf bytes.Buffer
			if err := s.WriteModel(&buf, page, inferred); err != nil {
				t.Fatal(err)
			}
			got, err := rdf.ReadTurtle(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("match %s inferred=%v: %v", page.ID, inferred, err)
			}
			var want *rdf.Graph
			if inferred {
				want = s.Infer(page).Model.Graph
			} else {
				want = s.Populate(page).Model.Graph
			}
			if got.Len() != want.Len() {
				t.Fatalf("match %s inferred=%v: %d triples back, want %d",
					page.ID, inferred, got.Len(), want.Len())
			}
			for _, tr := range want.All() {
				if !got.Has(tr) {
					t.Fatalf("match %s: lost triple %v", page.ID, tr)
				}
			}
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	// The serving story: one built index, many concurrent readers.
	s := testSystem(t, 2)
	s.BuildIndex(semindex.FullInf)
	queries := []string{"goal", "punishment", "messi", "save goalkeeper barcelona", "foul"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				if hits := s.Search(q, 5); len(hits) == 0 && q != "nonexistent" {
					t.Errorf("concurrent search %q returned nothing", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSummary(t *testing.T) {
	s := testSystem(t, 2)
	s.Search("goal", 1)
	sum := s.Summary()
	if !strings.Contains(sum, "2 pages loaded") {
		t.Errorf("Summary = %q", sum)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSearchLevelDAATEquivalence drives the DAAT-equals-exhaustive
// contract through the full system façade at every semantic level: the
// pruned kernel must return the exact hits — documents, scores, order —
// the term-at-a-time path does, for plain, phrasal and advanced-syntax
// queries alike.
func TestSearchLevelDAATEquivalence(t *testing.T) {
	s := testSystem(t, 3)
	queries := []string{
		"goal", "yellow card corner", "goal by player",
		`"free kick"`, "+goal -card", "gaol~",
	}
	for _, level := range semindex.Levels {
		ix := s.BuildIndex(level)
		for _, q := range queries {
			for _, limit := range []int{0, 1, 5, 50} {
				pruned := s.SearchLevel(level, q, limit)
				exhaustive := semindex.Prepare(level, ix.Index.Analyzer(), ix.Index.HasField, q, nil).ExhaustiveSearch(ix.Index, limit)
				if len(pruned) != len(exhaustive) {
					t.Fatalf("%s %q limit %d: %d hits pruned, %d exhaustive",
						level, q, limit, len(pruned), len(exhaustive))
				}
				for i := range exhaustive {
					if pruned[i].DocID != exhaustive[i].DocID || pruned[i].Score != exhaustive[i].Score {
						t.Errorf("%s %q limit %d rank %d: (%d, %v) want (%d, %v)",
							level, q, limit, i+1,
							pruned[i].DocID, pruned[i].Score,
							exhaustive[i].DocID, exhaustive[i].Score)
					}
				}
			}
		}
	}
}
