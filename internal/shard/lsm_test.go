package shard

// LSM tests beyond the composed oracle (oracle_test.go): the cache's
// evict-on-any-write rule, the compaction a commit starts at the segment
// threshold and the statistics arithmetic.

import (
	"context"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/semindex"
)

// TestAnyWriteEvictsCachedAnswers pins the cache's one rule: a commit
// that adds or tombstones a document evicts every cached answer, even
// one whose terms occur nowhere in the corpus, while a write that changes
// no content (an empty batch, a merge) evicts none. Every answer equals a
// cold scatter.
func TestAnyWriteEvictsCachedAnswers(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	r := obs.NewRegistry()
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	e.EnableCache(1<<20, r)
	e.SetMetrics(obs.NewRegistry())
	queries := []string{"goal", "yellow card", "zzxqv wqkjy"}

	search := func(q string) CacheStatus {
		t.Helper()
		res, err := e.Search(ctx, q, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := e.Search(ctx, q, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, q+" vs cold", res.Hits, cold.Hits)
		return res.Cache
	}
	expect := func(step string, want CacheStatus) {
		t.Helper()
		for _, q := range queries {
			if got := search(q); got != want {
				t.Errorf("%s: %q is a %s, want %s", step, q, got, want)
			}
		}
	}

	for _, q := range queries {
		search(q)
	}
	expect("warm", CacheHit)
	invalidations := r.Counter(qcache.MetricInvalidations)
	before := invalidations.Value()
	// Re-ingest one page unchanged: its documents are tombstoned and added
	// again, and the corpus statistics net out to their old values.
	res, err := e.Ingest(ctx, []*crawler.MatchPage{pages[0]}, IngestOptions{Merge: MergeNone})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Docs == 0 || res.Tombstones == 0 {
		t.Fatalf("re-ingest added or tombstoned nothing: %+v", res)
	}
	expect("after a write", CacheMiss)
	expect("after recomputing", CacheHit)
	if got := invalidations.Value() - before; got != uint64(len(queries)) {
		t.Errorf("write invalidated %d entries, want %d", got, len(queries))
	}

	if _, err := e.Ingest(ctx, nil, IngestOptions{Merge: MergeNone}); err != nil {
		t.Fatalf("empty Ingest: %v", err)
	}
	expect("after an empty ingest", CacheHit)
	e.ForceMerge()
	expect("after ForceMerge", CacheHit)
}

// TestCommitStartsCompaction: with no call besides Ingest, the commit
// that stacks a shard's fourth segment starts a compaction pass, and the
// pass leaves the ranking equal to the monolithic oracle.
func TestCommitStartsCompaction(t *testing.T) {
	pages, _ := fixture(t)
	ctx := context.Background()
	e := Build(nil, semindex.FullInf, pages[:2], Options{Shards: 1})
	e.SetMetrics(obs.NewRegistry())
	oracle := newMonoOracle(pages[:2])
	for _, p := range pages[2:6] {
		if _, err := e.Ingest(ctx, []*crawler.MatchPage{p}, IngestOptions{}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		oracle.update(p)
	}
	awaitCompaction(t, e)
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(e, q.Keywords, 0), oracle.si.Search(q.Keywords, 0))
	}
}

// awaitCompaction fails unless e's segments fall below mergeSegments
// within 5s. Its engines have one shard, so that is the shard's count.
func awaitCompaction(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Segments >= mergeSegments {
		if time.Now().After(deadline) {
			t.Fatalf("%d segments left after 5s", e.Stats().Segments)
		}
		time.Sleep(5 * time.Millisecond)
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
