package shard

// LSM tests beyond the composed oracle (oracle_test.go): scoped cache
// invalidation, the merger's threshold and the statistics arithmetic.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// scopedFixture finds a (query, page) pair where the query's statistics
// footprint has no postings on the page's owner shard — the setup where
// scoped invalidation can prove a cached answer survives the write.
func scopedFixture(t *testing.T, e *Engine, pages []*crawler.MatchPage) (string, *crawler.MatchPage) {
	t.Helper()
	var cands []string
	for _, p := range pages {
		for _, lines := range p.Lineups {
			for _, pl := range lines {
				cands = append(cands, strings.ToLower(pl.Short))
			}
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, p := range pages {
		s := shardFor(p.ID, len(e.base))
		for _, q := range cands {
			fp, ok := e.base[0].si.Prepare(q).Footprint()
			if !ok || len(fp) == 0 {
				continue
			}
			if !e.shardHasAnyLocked(s, fp) {
				return q, p
			}
		}
	}
	t.Fatal("fixture has no shard-local query term; enlarge the corpus")
	return "", nil
}

// TestScopedInvalidationKeepsDisjointEntries is the scoped-invalidation
// unit test: a write to shard S evicts exactly the cached answers whose
// shard-set or statistics it could touch. A query with no footprint on
// S stays a HIT across the write; a query matching the written page
// itself misses and recomputes; every answer equals a cold scatter.
func TestScopedInvalidationKeepsDisjointEntries(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	build := func() *Engine {
		e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
		e.EnableCache(1<<20, obs.NewRegistry())
		e.SetMetrics(obs.NewRegistry())
		return e
	}

	e := build()
	disjoint, target := scopedFixture(t, e, pages)
	// A query matching the target page itself — its shard-set contains
	// the written shard, so the write must evict it.
	var touching string
	for _, lines := range target.Lineups {
		for _, pl := range lines {
			touching = strings.ToLower(pl.Short)
			break
		}
		break
	}

	warm := func(eng *Engine, q string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := eng.Search(ctx, q, SearchOptions{Limit: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	status := func(eng *Engine, q string) CacheStatus {
		t.Helper()
		res, err := eng.Search(ctx, q, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.Search(ctx, q, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, q+" vs cold", res.Hits, cold.Hits)
		return res.Cache
	}

	warm(e, disjoint)
	warm(e, touching)
	// Re-ingest the target page unchanged: only its owner shard's epoch
	// moves, and the corpus statistics net out to exactly their old
	// values.
	res, err := e.Ingest(ctx, []*crawler.MatchPage{target}, IngestOptions{Merge: MergeNone})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Tombstones == 0 {
		t.Fatalf("re-ingest tombstoned nothing: %+v", res)
	}
	if got := status(e, disjoint); got != CacheHit {
		t.Errorf("disjoint query after scoped write: %s, want %s", got, CacheHit)
	}
	if got := status(e, touching); got != CacheMiss {
		t.Errorf("touching query after scoped write: %s, want %s", got, CacheMiss)
	}
	// A second disjoint write: the entry's refreshed epochs must keep it
	// valid, not just the first time.
	if _, err := e.Ingest(ctx, []*crawler.MatchPage{target}, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if got := status(e, disjoint); got != CacheHit {
		t.Errorf("disjoint query after second scoped write: %s, want %s", got, CacheHit)
	}
}

// TestMergerCompactsAtSegmentThreshold: the background merger, started
// with its fixed policy, compacts a shard once ingest has stacked four
// segments on it, and the compaction leaves the ranking equal to the
// monolithic oracle.
func TestMergerCompactsAtSegmentThreshold(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	e := Build(nil, semindex.FullInf, pages[:2], Options{Shards: 1})
	e.SetMetrics(obs.NewRegistry())
	oracle := newMonoOracle(pages[:2])
	e.StartMerger()
	defer e.StopMerger()
	for _, p := range pages[2:6] {
		if _, err := e.Ingest(ctx, []*crawler.MatchPage{p}, IngestOptions{}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		oracle.update(p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Segments >= mergeSegments {
		if time.Now().After(deadline) {
			t.Fatalf("merger left %d segments after 5s", e.Stats().Segments)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(e, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
	}
}

// TestDocStatsRemoveExactness pins the statistics arithmetic the whole
// design rests on: removing a document's stats from a corpus view must
// leave exactly the view a from-scratch recompute over the remaining
// documents produces — term-for-term, integer-for-integer.
func TestDocStatsRemoveExactness(t *testing.T) {
	pages, _ := fixture(t)
	b := semindex.NewBuilder()
	si := b.Build(semindex.FullInf, pages[:2])
	ix := si.Index

	got := ix.LocalStats()
	for id := 0; id < ix.NumDocs(); id += 2 {
		got.Remove(ix.DocStats(id))
		ix.Delete(id)
	}
	want := ix.LocalStats() // tombstone-aware recompute

	if got.Docs != want.Docs {
		t.Fatalf("Docs = %d, want %d", got.Docs, want.Docs)
	}
	if len(got.Fields) != len(want.Fields) {
		t.Fatalf("%d fields, want %d", len(got.Fields), len(want.Fields))
	}
	for name, wfs := range want.Fields {
		gfs := got.Fields[name]
		if gfs == nil {
			t.Fatalf("field %q missing after Remove", name)
		}
		if gfs.Docs != wfs.Docs || gfs.SumLen != wfs.SumLen {
			t.Errorf("field %q: docs/sumLen %d/%d, want %d/%d", name, gfs.Docs, gfs.SumLen, wfs.Docs, wfs.SumLen)
		}
		if len(gfs.DocFreq) != len(wfs.DocFreq) {
			t.Errorf("field %q: %d terms, want %d", name, len(gfs.DocFreq), len(wfs.DocFreq))
		}
		for term, df := range wfs.DocFreq {
			if gfs.DocFreq[term] != df {
				t.Errorf("df(%s,%s) = %d, want %d", name, term, gfs.DocFreq[term], df)
			}
		}
	}
}
