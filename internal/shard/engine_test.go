package shard

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/loadgen"
	"repro/internal/semindex"
	"repro/internal/soccer"
	"repro/internal/wal"
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
// under -race: many goroutines search while matches are ingested, and two
// goroutines apiece re-upsert the built pages, so prepares sum statistics
// over one base side by side and some commits find their sum stale. The
// corpus statistics must end as a build of the same pages has them.
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
	for _, p := range slices.Concat(pages, pages[:3]) {
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
	if want := Build(nil, semindex.FullInf, pages, Options{Shards: 1}).Stats().Global; !reflect.DeepEqual(e.Stats().Global, want) {
		t.Error("corpus statistics differ from a build of the same pages")
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

// generatedPages returns every page of a generated corpus; each page's ID
// is a view of its rendered HTML (corpus.Generator parses what it renders).
func generatedPages(t *testing.T, spec corpus.Spec) []*crawler.MatchPage {
	t.Helper()
	g := corpus.New(spec)
	var pages []*crawler.MatchPage
	for {
		p, err := g.NextPage()
		if err == io.EOF {
			return pages
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
}

// sharesBytes reports whether two strings overlap in memory.
func sharesBytes(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// TestPageKeysPinNoPage: a generated page's ID is a view of its whole
// rendered HTML (crawler.ParseMatchPage), so a pageGIDs key that shared
// its bytes would keep every ingested page's HTML live. No key shares a
// page's ID bytes after BuildStream, after Ingest (new pages and upserts),
// or after a load that replays both from the WAL.
func TestPageKeysPinNoPage(t *testing.T) {
	pages := generatedPages(t, corpus.Spec{TargetDocs: 600, Seed: 4})
	e, err := BuildStream(nil, semindex.FullInf, &sliceSource{pages: pages}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// New pages, and an upsert of a built page parsed again, so its ID is
	// a fresh view.
	batch := append(generatedPages(t, corpus.Spec{TargetDocs: 600, Seed: 4})[:1],
		generatedPages(t, corpus.Spec{TargetDocs: 300, Seed: 5, NoCoverage: true})...)
	check := func(stage string, e *Engine, pages []*crawler.MatchPage) {
		t.Helper()
		if len(e.pageGIDs) == 0 {
			t.Fatalf("%s: no page keys", stage)
		}
		for key := range e.pageGIDs {
			for _, p := range pages {
				if sharesBytes(key, p.ID) {
					t.Fatalf("%s: the key of page %s shares the page's ID bytes", stage, key)
				}
			}
		}
	}
	check("BuildStream", e, pages)

	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), batch, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	check("Ingest", e, append(pages, batch...))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LoadReport().WALReplayed == 0 {
		t.Fatal("the load replayed no WAL record")
	}
	check("WAL replay", l, append(pages, batch...))
}

// TestShardViewRanksLikeEngine pins the view of one shard that Shard
// returns, which the repository benchmark times per layer: after upserts
// and ForceMerge, on a heap engine and on a mapped one that also saved and
// reinstalled its bases, a shard view's Search ranks its shard's documents
// exactly as the engine ranks them, in order and bit for bit.
func TestShardViewRanksLikeEngine(t *testing.T) {
	spec := corpus.Spec{TargetDocs: 1500, Seed: 62}
	pages := generatedPages(t, spec)
	cut := len(pages) - 8
	var revised []*crawler.MatchPage
	for _, p := range pages[:8] {
		v := *p
		v.Narrations = p.Narrations[:len(p.Narrations)/2]
		revised = append(revised, &v)
	}
	var queries []string
	for _, q := range eval.PaperQueries() {
		queries = append(queries, q.Keywords)
	}
	for _, q := range loadgen.GenerateQueries(loadgen.VocabFromUniverse(corpus.New(spec).Universe()), nil, 120, 62) {
		queries = append(queries, q.Text)
	}

	heap := Build(nil, semindex.FullInf, pages[:cut], Options{Shards: 2})
	defer heap.Close()
	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := heap.Save(base); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, e := range map[string]*Engine{"heap": heap, "mapped": mapped} {
		for _, batch := range [][]*crawler.MatchPage{pages[cut:], revised} {
			if _, err := e.Ingest(context.Background(), batch, IngestOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		e.ForceMerge()
		if e == mapped {
			if err := e.Save(base); err != nil {
				t.Fatal(err)
			}
		}
		if st := e.Stats(); st.Segments != 0 || st.Tombstones != 0 {
			t.Fatalf("%s: %d segments, %d tombstones after ForceMerge", name, st.Segments, st.Tombstones)
		}
		// Every live document is in a base: its shard, and each base's
		// global IDs.
		e.mu.RLock()
		owner := make([]int, len(e.byGID))
		for gid, ref := range e.byGID {
			owner[gid] = slices.Index(e.base, ref.sub)
		}
		var gids [][]int
		for _, b := range e.base {
			gids = append(gids, b.gids)
		}
		e.mu.RUnlock()
		for _, q := range queries {
			res, err := e.Search(context.Background(), q, SearchOptions{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			for s := range gids {
				var all []semindex.Hit
				for _, h := range res.Hits {
					if owner[h.DocID] == s {
						all = append(all, h)
					}
				}
				for _, limit := range []int{0, 10} {
					want := all
					if limit > 0 {
						want = all[:min(limit, len(all))]
					}
					var got []semindex.Hit
					for _, h := range e.Shard(s).Search(q, limit) {
						got = append(got, semindex.NewHit(e, gids[s][h.DocID], h.Score))
					}
					if err := sameHits(got, want); err != nil {
						t.Fatalf("%s shard %d %q at limit %d: %v", name, s, q, limit, err)
					}
				}
			}
		}
	}
}
