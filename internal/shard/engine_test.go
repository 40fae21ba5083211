package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
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
// (d <= 0 means unbounded), returning hits plus the degradation report.
func searchWithin(e *Engine, q string, limit int, d time.Duration) ([]semindex.Hit, SearchReport) {
	ctx := context.Background()
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, err := e.Search(ctx, q, SearchOptions{Limit: limit})
	if err != nil {
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

// TestScatterGatherEquivalence is the engine's core guarantee: for the
// seeded corpus, the 4-shard scatter-gather top-10 — documents and scores
// — equals the single-index top-10 for all ten paper queries at FULL_INF.
func TestScatterGatherEquivalence(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	if e.NumDocs() != mono.Index.NumDocs() {
		t.Fatalf("engine has %d docs, monolith %d", e.NumDocs(), mono.Index.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(e, q.Keywords, 10), mono.Search(q.Keywords, 10))
		// The full ranking (limit 0), not just the top-10, must agree.
		assertSameHits(t, q.ID+"/full", searchN(e, q.Keywords, 0), mono.Search(q.Keywords, 0))
	}
}

// TestShardCountInvariance: the ranking must not depend on the partition
// count — 1, 2, 3 and 5 shards all reproduce the monolith.
func TestShardCountInvariance(t *testing.T) {
	pages, mono := fixture(t)
	want := mono.Search("messi barcelona goal", 10)
	for _, n := range []int{1, 2, 3, 5} {
		e := Build(nil, semindex.FullInf, pages, Options{Shards: n})
		assertSameHits(t, fmt.Sprintf("shards=%d", n), searchN(e, "messi barcelona goal", 10), want)
	}
}

// TestGlobalStatsExchange checks the consistency mechanism itself: the
// merged statistics equal the monolith's local ones, and each shard has
// the global view installed.
func TestGlobalStatsExchange(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	want := mono.Index.LocalStats()
	got := e.Stats().Global
	if got.Docs != want.Docs {
		t.Fatalf("global docs %d, want %d", got.Docs, want.Docs)
	}
	for field, wfs := range want.Fields {
		gfs := got.Fields[field]
		if gfs == nil {
			t.Fatalf("field %q missing from global stats", field)
		}
		if gfs.Docs != wfs.Docs || gfs.SumLen != wfs.SumLen {
			t.Errorf("field %q: docs/sumLen %d/%d, want %d/%d",
				field, gfs.Docs, gfs.SumLen, wfs.Docs, wfs.SumLen)
		}
		if gfs.AvgLen() != wfs.AvgLen() {
			t.Errorf("field %q: avgLen %v, want %v", field, gfs.AvgLen(), wfs.AvgLen())
		}
		for term, df := range wfs.DocFreq {
			if gfs.DocFreq[term] != df {
				t.Errorf("df(%s,%s) = %d, want %d", field, term, gfs.DocFreq[term], df)
			}
		}
	}
	for i := 0; i < e.NumShards(); i++ {
		if e.Shard(i).Index.CorpusStats() != got {
			t.Errorf("shard %d does not share the global stats", i)
		}
	}
}

// TestIncrementalIngest: adding a match must grow only the owning shard
// — as an appended segment, without rebuilding ANY base index — and
// afterwards rank identically to a from-scratch build over the enlarged
// corpus, both before and after the segment is merged in.
func TestIncrementalIngest(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:len(pages)-1], Options{Shards: 4})
	last := pages[len(pages)-1]
	owner := shardFor(last.ID, 4)
	perShard := func() []int {
		st := e.Stats()
		out := make([]int, len(st.PerShard))
		for i, ps := range st.PerShard {
			out[i] = ps.Docs
		}
		return out
	}
	before := perShard()
	baseBefore := make([]int, 4)
	for i := range baseBefore {
		baseBefore[i] = e.Shard(i).Index.NumDocs()
	}

	ingestPage(e, last)

	after := perShard()
	for i := range before {
		if i == owner {
			if after[i] <= before[i] {
				t.Errorf("owning shard %d did not grow", i)
			}
		} else if after[i] != before[i] {
			t.Errorf("shard %d changed on ingest: %d docs, was %d", i, after[i], before[i])
		}
		// LSM contract: ingest appends a segment; no base is rebuilt.
		if e.Shard(i).Index.NumDocs() != baseBefore[i] {
			t.Errorf("shard %d base rebuilt on ingest: %d docs, was %d",
				i, e.Shard(i).Index.NumDocs(), baseBefore[i])
		}
	}
	if e.Stats().Segments == 0 {
		t.Error("ingest created no segment")
	}
	if e.NumDocs() != mono.Index.NumDocs() {
		t.Fatalf("engine has %d docs after ingest, monolith %d", e.NumDocs(), mono.Index.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(e, q.Keywords, 10), mono.Search(q.Keywords, 10))
	}
	// And again after compaction: merging is invisible to ranking.
	e.ForceMerge()
	if st := e.Stats(); st.Segments != 0 || st.Tombstones != 0 {
		t.Fatalf("ForceMerge left %d segments, %d tombstones", st.Segments, st.Tombstones)
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID+" (merged)", searchN(e, q.Keywords, 10), mono.Search(q.Keywords, 10))
	}
}

// TestSuggestAndRelated: the auxiliary search features agree with the
// monolith too — suggestions come from the global vocabulary and related
// documents are ranked with the global statistics.
func TestSuggestAndRelated(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	if got, want := e.Suggest("mesi goal"), mono.Suggest("mesi goal"); got != want {
		t.Errorf("Suggest = %q, want %q", got, want)
	}
	if got := e.Suggest("messi goal"); got != "" {
		t.Errorf("Suggest on clean query = %q, want empty", got)
	}
	for _, gid := range []int{0, 7, mono.Index.NumDocs() - 1} {
		assertSameHits(t, fmt.Sprintf("related(%d)", gid), e.Related(gid, 10), mono.Related(gid, 10))
	}
	if hits := e.Related(-1, 10); hits != nil {
		t.Errorf("Related(-1) = %d hits", len(hits))
	}
	if hits := e.Related(1<<30, 10); hits != nil {
		t.Errorf("Related(out of range) = %d hits", len(hits))
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
