package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// searchN runs the unified Search with just a limit — the common test
// call shape (background context never errors).
func searchN(e *Engine, q string, limit int) []semindex.Hit {
	res, err := e.Search(context.Background(), q, SearchOptions{Limit: limit})
	if err != nil {
		panic(err)
	}
	return res.Hits
}

// ingestPage commits one page through the unified Ingest with default
// options — the common test call shape.
func ingestPage(e *Engine, p *crawler.MatchPage) error {
	_, err := e.Ingest(context.Background(), []*crawler.MatchPage{p}, IngestOptions{})
	return err
}

// searchWithin runs the unified Search under a per-scatter deadline
// (d <= 0 means unbounded), returning hits plus the degradation report. A
// budget spent before the search starts (a loaded machine) yields neither:
// Search then returns only the context's error.
func searchWithin(e *Engine, q string, limit int, d time.Duration) ([]semindex.Hit, SearchReport) {
	ctx := context.Background()
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, err := e.Search(ctx, q, SearchOptions{Limit: limit})
	if err != nil && ctx.Err() == nil {
		panic(err)
	}
	return res.Hits, res.Report
}

// The fixture corpus and monolithic reference index are built once; the
// per-match pipeline (extraction, population, inference) dominates build
// time and every test compares against the same monolith.
var (
	fixOnce     sync.Once
	fixPages    []*crawler.MatchPage
	fixMonolith *semindex.SemanticIndex
)

func fixture(t testing.TB) ([]*crawler.MatchPage, *semindex.SemanticIndex) {
	t.Helper()
	fixOnce.Do(func() {
		c := soccer.Generate(soccer.Config{Matches: 6, Seed: 42, NarrationsPerMatch: 80, PaperCoverage: true})
		fixPages = crawler.PagesFromCorpus(c)
		fixMonolith = semindex.NewBuilder().Build(semindex.FullInf, fixPages)
	})
	return fixPages, fixMonolith
}

// assertSameHits fails unless the two rankings agree on documents and
// scores exactly. Engine hits carry global docIDs, which by construction
// equal the monolith's docIDs.
func assertSameHits(t *testing.T, label string, got, want []semindex.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID {
			t.Errorf("%s: rank %d doc %d, want %d", label, i+1, got[i].DocID, want[i].DocID)
		}
		if got[i].Score != want[i].Score {
			t.Errorf("%s: rank %d score %v, want %v (doc %d)",
				label, i+1, got[i].Score, want[i].Score, want[i].DocID)
		}
	}
}

// TestConcurrentSearchAndIngest backs the engine's concurrency contract
// under -race: many goroutines search while matches are ingested.
func TestConcurrentSearchAndIngest(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:3], Options{Shards: 3})
	queries := []string{"goal", "punishment", "messi barcelona goal", "yellow card"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				searchN(e, q, 10)
				e.Suggest(q)
				e.Related(i%e.NumDocs(), 5)
			}
		}(g)
	}
	for _, p := range pages[3:] {
		wg.Add(1)
		go func(p *crawler.MatchPage) {
			defer wg.Done()
			ingestPage(e, p)
		}(p)
	}
	wg.Wait()
	if e.NumDocs() == 0 {
		t.Fatal("engine empty after concurrent ingest")
	}
}

// TestEmptyAndSingle covers the degenerate shapes: no pages, one shard,
// shard count clamping.
func TestEmptyAndSingle(t *testing.T) {
	e := Build(nil, semindex.FullInf, nil, Options{Shards: 0})
	if e.NumShards() != 1 {
		t.Errorf("clamped shards = %d, want 1", e.NumShards())
	}
	if hits := searchN(e, "goal", 10); len(hits) != 0 {
		t.Errorf("empty engine returned %d hits", len(hits))
	}
	if e.Doc(0) != nil {
		t.Error("Doc(0) on empty engine")
	}
}
