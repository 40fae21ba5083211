package shard_test

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// hitMeta are the stored fields a hit's Meta reads in these tests: every
// one a serving caller shows.
var hitMeta = []string{semindex.MetaKind, semindex.MetaMatchID, semindex.MetaMinute, semindex.MetaSubject, semindex.MetaObject}

// hitFixture returns the pages of a small generated corpus and a 500-query
// pool over its vocabulary in the benchmark's mix (keyword 5 : phrase 2 :
// field 2 : fuzzy 1).
func hitFixture(t *testing.T) ([]*crawler.MatchPage, []loadgen.Query) {
	t.Helper()
	g := corpus.New(corpus.Spec{TargetDocs: 2_000, Seed: 49})
	var pages []*crawler.MatchPage
	for {
		p, err := g.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	mix := map[loadgen.Class]int{loadgen.ClassKeyword: 5, loadgen.ClassPhrase: 2, loadgen.ClassField: 2, loadgen.ClassFuzzy: 1}
	return pages, loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), mix, 500, 49)
}

// hitEngines builds a 2-shard heap engine over pages, saves it, and
// returns it with a mapped load of the snapshot.
func hitEngines(t *testing.T, pages []*crawler.MatchPage) map[string]*shard.Engine {
	t.Helper()
	heap := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 2})
	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := heap.Save(base); err != nil {
		t.Fatal(err)
	}
	mapped, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		heap.Close()
		mapped.Close()
	})
	return map[string]*shard.Engine{"heap": heap, "mapped": mapped}
}

// TestSearchDecodesNothing: a search builds its hits without reading a
// stored document, so 500 searches of a query pool leave no document
// decoded on a heap engine or a mapped one.
func TestSearchDecodesNothing(t *testing.T) {
	pages, pool := hitFixture(t)
	for name, e := range hitEngines(t, pages) {
		hits := 0
		for _, q := range pool {
			res, err := e.Search(context.Background(), q.Text, shard.SearchOptions{Limit: 10})
			if err != nil {
				t.Fatal(err)
			}
			hits += len(res.Hits)
		}
		if hits == 0 {
			t.Fatalf("%s: the pool found nothing", name)
		}
		if n := e.CachedDocs(); n != 0 {
			t.Errorf("%s: %d searches serving %d hits left %d documents decoded", name, len(pool), hits, n)
		}
	}
}

// TestMappedFacetsDecodeNothing: a mapped engine's TOC holds every
// document's event kind, so facets over the pool's limit-0 answers (what
// socserve's /v1/search counts) leave no stored document decoded, and they
// equal a heap engine's.
func TestMappedFacetsDecodeNothing(t *testing.T) {
	pages, pool := hitFixture(t)
	engines := hitEngines(t, pages)
	counted := 0
	for _, q := range pool {
		var facets [2][]semindex.Facet
		for i, name := range []string{"heap", "mapped"} {
			res, err := engines[name].Search(context.Background(), q.Text, shard.SearchOptions{Limit: 0})
			if err != nil {
				t.Fatal(err)
			}
			facets[i] = semindex.Facets(res.Hits, semindex.MetaKind)
		}
		if !reflect.DeepEqual(facets[1], facets[0]) {
			t.Fatalf("%q: mapped facets %v, heap %v", q.Text, facets[1], facets[0])
		}
		counted += len(facets[0])
	}
	if counted == 0 {
		t.Fatal("the pool's answers hold no event kind")
	}
	if n := engines["mapped"].CachedDocs(); n != 0 {
		t.Errorf("facets over %d answers left %d documents decoded", len(pool), n)
	}
}

// TestHitReadAfterClose: a hit resolves its document through the engine
// when read, so one read after Close finds none — nil and "" — instead of
// reading a mapped region Close unmapped.
func TestHitReadAfterClose(t *testing.T) {
	pages, _ := hitFixture(t)
	for name, e := range hitEngines(t, pages) {
		res, err := e.Search(context.Background(), "goal", shard.SearchOptions{Limit: 10})
		if err != nil || len(res.Hits) == 0 {
			t.Fatalf("%s: %d hits, err %v", name, len(res.Hits), err)
		}
		if res.Hits[0].Doc() == nil || res.Hits[0].Meta(semindex.MetaKind) == "" {
			t.Fatalf("%s: an open engine's hit reads no document", name)
		}
		e.Close()
		for _, h := range res.Hits {
			if h.Doc() != nil || h.Meta(semindex.MetaKind) != "" {
				t.Errorf("%s: hit %d reads a document after Close", name, h.DocID)
			}
		}
	}
}

// sameHitFields fails unless two answers rank the same documents at the
// same scores and every hit reads the same stored document and fields.
func sameHitFields(t *testing.T, label string, got, want []semindex.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.DocID != w.DocID || g.Score != w.Score {
			t.Fatalf("%s: rank %d is doc %d at %v, want doc %d at %v", label, i+1, g.DocID, g.Score, w.DocID, w.Score)
		}
		if d := g.Doc(); d == nil || !reflect.DeepEqual(d, w.Doc()) {
			t.Fatalf("%s: rank %d (doc %d) reads %+v, want %+v", label, i+1, g.DocID, d, w.Doc())
		}
		for _, f := range hitMeta {
			if g.Meta(f) != w.Meta(f) {
				t.Fatalf("%s: rank %d (doc %d) Meta(%s) = %q, want %q", label, i+1, g.DocID, f, g.Meta(f), w.Meta(f))
			}
		}
	}
}

// TestCacheHitAfterForceMergeReadsSameFields: ForceMerge changes no
// answer, so it leaves cached answers in place, and replaces the sub-indexes
// their documents sit in (a mapped engine unmaps the old base). A cached
// answer, and a caller's copy of the answer taken before the merge, must
// still read the fields a cold search reads after it.
func TestCacheHitAfterForceMergeReadsSameFields(t *testing.T) {
	pages, pool := hitFixture(t)
	fresh := corpus.New(corpus.Spec{TargetDocs: 400, Seed: 50, NoCoverage: true})
	var more []*crawler.MatchPage
	for {
		p, err := fresh.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, p)
	}
	// Re-ingest two built pages (tombstones in the base) beside new ones
	// (segments), so the merge drops documents and moves the rest.
	batch := append([]*crawler.MatchPage{pages[0], pages[3]}, more...)
	ctx := context.Background()
	queries := pool[:60]
	for name, e := range hitEngines(t, pages) {
		e.EnableCache(8<<20, obs.NewRegistry())
		if _, err := e.Ingest(ctx, batch, shard.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		before := make([][]semindex.Hit, len(queries))
		for i, q := range queries {
			res, err := e.Search(ctx, q.Text, shard.SearchOptions{Limit: 10})
			if err != nil {
				t.Fatal(err)
			}
			before[i] = res.Hits
		}
		e.ForceMerge()
		for i, q := range queries {
			warm, err := e.Search(ctx, q.Text, shard.SearchOptions{Limit: 10})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Cache != shard.CacheHit {
				t.Fatalf("%s %q: status %q after ForceMerge, want hit", name, q.Text, warm.Cache)
			}
			cold, err := e.Search(ctx, q.Text, shard.SearchOptions{Limit: 10, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			sameHitFields(t, name+" cached "+q.Text, warm.Hits, cold.Hits)
			sameHitFields(t, name+" held "+q.Text, before[i], cold.Hits)
		}
	}
}

// TestHitReadAfterUpsert: an ingest that replaces a hit's page tombstones
// the hit's document, so the hit then reads as gone — Doc() nil, its Get
// and Meta "" — without faulting, and a facet count over the answer, read
// in one pass under the engine lock, counts exactly what the hits' own
// Meta reads.
func TestHitReadAfterUpsert(t *testing.T) {
	pages, _ := hitFixture(t)
	ctx := context.Background()
	for name, e := range hitEngines(t, pages) {
		res, err := e.Search(ctx, "goal", shard.SearchOptions{Limit: 0})
		if err != nil || len(res.Hits) == 0 {
			t.Fatalf("%s: %d hits, err %v", name, len(res.Hits), err)
		}
		pid := res.Hits[0].Meta(semindex.MetaMatchID)
		replaced := map[int]bool{}
		for _, h := range res.Hits {
			replaced[h.DocID] = h.Meta(semindex.MetaMatchID) == pid
		}
		for _, p := range pages {
			if p.ID == pid {
				if _, err := e.Ingest(ctx, []*crawler.MatchPage{p}, shard.IngestOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		counts := map[string]int{}
		for _, h := range res.Hits {
			kind := h.Meta(semindex.MetaKind)
			if got := h.Doc().Get(semindex.FieldNarration) + kind; replaced[h.DocID] && (h.Doc() != nil || got != "") {
				t.Errorf("%s: hit %d on the replaced page reads %q", name, h.DocID, got)
			} else if !replaced[h.DocID] && kind == "" {
				t.Errorf("%s: hit %d on a kept page reads no kind", name, h.DocID)
			}
			if kind != "" {
				counts[kind]++
			}
		}
		facets := semindex.Facets(res.Hits, semindex.MetaKind)
		for _, f := range facets {
			if f.Count != counts[f.Value] {
				t.Errorf("%s: facet %s counts %d, the hits read %d", name, f.Value, f.Count, counts[f.Value])
			}
		}
		if len(facets) != len(counts) {
			t.Errorf("%s: %d facets, the hits read %d kinds", name, len(facets), len(counts))
		}
	}
}
