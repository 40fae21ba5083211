// Scale-truth integration test: the streaming corpus generator, the
// chunked sharded build, the query cache, live ingest and concurrent
// searchers all running against each other at 10k-document scale, under
// the race detector in CI. Like the other tests that draw query pools
// from internal/loadgen, it drives the engine through its exported API
// only, from the external test package.
package shard_test

import (
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// TestCacheInvalidationUnderLoadAt10k races a full Zipfian query workload
// against live ingest on a 10k-document engine: every cached answer
// produced while epochs advance must still be safe, and once ingest
// quiesces the cached path must agree byte-for-byte with a forced-cold
// scatter — the epoch invalidation contract at a scale where stale
// entries would actually surface.
func TestCacheInvalidationUnderLoadAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-doc engine")
	}
	g := corpus.New(corpus.Spec{TargetDocs: 10_000, Seed: 21})
	eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: 4})
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	eng.EnableCache(8<<20, obs.NewRegistry())
	eng.SetMetrics(obs.NewRegistry())

	// Ingest pages from the same universe (fresh seed, no fixtures) so the
	// hot query vocabulary keeps matching the incoming documents.
	ingest := corpus.New(corpus.Spec{TargetDocs: 3_000, Seed: 22, NoCoverage: true})
	var pages []*crawler.MatchPage
	for {
		p, err := ingest.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextPage: %v", err)
		}
		pages = append(pages, p)
	}

	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), nil, 200, 23)
	// The searchers must overlap an ingest: the middle request waits until
	// the ingester has committed a page it began after the run started, so
	// the run cannot finish before the first commit however fast it is.
	started, committed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		signalled := false
		for _, p := range pages {
			var after bool
			select {
			case <-started:
				after = true
			default:
			}
			eng.Ingest(context.Background(), []*crawler.MatchPage{p}, shard.IngestOptions{})
			if after && !signalled {
				close(committed)
				signalled = true
			}
		}
	}()
	docsBefore := eng.NumDocs()
	close(started)
	seen := searchUnderLoad(t, eng, queries, 24, committed)
	docsAfter := eng.NumDocs()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if docsAfter == docsBefore {
		t.Fatalf("NumDocs did not move while the searchers ran — the test raced nothing")
	}
	if seen[shard.CacheHit] == 0 || seen[shard.CacheMiss] == 0 {
		t.Fatalf("searchers met the cache as %v: without both hits and misses the test raced no invalidation", seen)
	}

	// Quiesced: every cached answer must be byte-identical to a cold
	// scatter over the final corpus. A stale (pre-ingest) entry surviving
	// epoch invalidation would differ on any query the new pages match.
	ctx := context.Background()
	for _, q := range queries {
		if q.Class == loadgen.ClassSuggest {
			continue
		}
		warm, err := eng.Search(ctx, q.Text, shard.SearchOptions{Limit: 10})
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		cold, err := eng.Search(ctx, q.Text, shard.SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		if len(warm.Hits) != len(cold.Hits) {
			t.Fatalf("%q: cached %d hits vs cold %d", q.Text, len(warm.Hits), len(cold.Hits))
		}
		for i := range warm.Hits {
			if warm.Hits[i].DocID != cold.Hits[i].DocID || warm.Hits[i].Score != cold.Hits[i].Score {
				t.Fatalf("%q hit %d: cached (%d, %g) vs cold (%d, %g)", q.Text, i,
					warm.Hits[i].DocID, warm.Hits[i].Score, cold.Hits[i].DocID, cold.Hits[i].Score)
			}
		}
	}
}

// searchUnderLoad runs the scale tests' searchers: 8 goroutines send
// 100 warm-up and then 1,500 measured requests between them. Each draws
// its queries from the pool by a Zipf rank of its own seed, so the pool's
// head is its hot set, and sends suggest probes through Engine.Suggest and
// the rest through Engine.Search. When mid is non-nil, the middle request
// first waits for it to close. A failed search fails t. It returns how
// often each cache status answered the measured searches.
func searchUnderLoad(t *testing.T, eng *shard.Engine, queries []loadgen.Query, seed int64, mid <-chan struct{}) map[shard.CacheStatus]int {
	const searchers, warmup, requests = 8, 100, 1_500
	var (
		seq  atomic.Int64
		wg   sync.WaitGroup
		seen [searchers]map[shard.CacheStatus]int
	)
	for w := range searchers {
		seen[w] = map[shard.CacheStatus]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(seed+int64(w))), 1.1, 1, uint64(len(queries)-1))
			for n := seq.Add(1); n <= warmup+requests; n = seq.Add(1) {
				q := queries[zipf.Uint64()]
				if n == warmup+requests/2 && mid != nil {
					select {
					case <-mid:
					case <-time.After(time.Minute):
						t.Error("no ingest committed within a minute of the run's start")
						return
					}
				}
				if q.Class == loadgen.ClassSuggest {
					eng.Suggest(q.Text)
					continue
				}
				res, err := eng.Search(context.Background(), q.Text, shard.SearchOptions{Limit: 10})
				if err != nil {
					t.Errorf("%q: %v", q.Text, err)
					return
				}
				if n > warmup {
					seen[w][res.Cache]++
				}
			}
		}()
	}
	wg.Wait()
	total := map[shard.CacheStatus]int{}
	for _, m := range seen {
		for st, k := range m {
			total[st] += k
		}
	}
	return total
}

// TestLSMIngestVsSearchAt10k is the write-firehose half of the
// scale-truth suite: a 10k-document engine, compacting as its commits
// stack segments, takes batched Ingest traffic — fresh pages AND repeated
// upserts of a hot set, so tombstones and net-zero statistics churn are
// both in play — while 8 concurrent searchers query it under the race
// detector. It asserts the two LSM safety contracts at scale:
//
//  1. No search observes mixed statistics epochs: every cold scatter
//     snapshots segments and corpus stats under one read-lock, so every
//     answer equals SOME consistent corpus state, and after quiescing
//     the cached path is byte-identical to a forced-cold scatter.
//  2. Compaction is invisible: a ForceMerge after the firehose changes
//     no answer byte.
func TestLSMIngestVsSearchAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-doc engine")
	}
	g := corpus.New(corpus.Spec{TargetDocs: 10_000, Seed: 41})
	eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: 4})
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	eng.EnableCache(8<<20, obs.NewRegistry())
	eng.SetMetrics(obs.NewRegistry())
	defer eng.Close() // waits for a compaction pass still running

	fresh := corpus.New(corpus.Spec{TargetDocs: 1_200, Seed: 42, NoCoverage: true})
	var pages []*crawler.MatchPage
	for {
		p, err := fresh.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextPage: %v", err)
		}
		pages = append(pages, p)
	}
	// Hot set: the first few fresh pages get re-ingested over and over,
	// exercising tombstoned upserts whose statistics net to zero.
	hot := pages[:8]

	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), nil, 200, 43)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const batch = 16
		for i := 0; i < len(pages); i += batch {
			end := i + batch
			if end > len(pages) {
				end = len(pages)
			}
			if _, err := eng.Ingest(ctx, pages[i:end], shard.IngestOptions{}); err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
			// Interleave a hot-set upsert between append batches.
			if _, err := eng.Ingest(ctx, hot, shard.IngestOptions{}); err != nil {
				t.Errorf("hot Ingest: %v", err)
				return
			}
		}
	}()
	searchUnderLoad(t, eng, queries, 44, nil)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: cached answers must equal a cold scatter byte-for-byte.
	check := func(label string) {
		t.Helper()
		for _, q := range queries {
			if q.Class == loadgen.ClassSuggest {
				continue
			}
			warm, err := eng.Search(ctx, q.Text, shard.SearchOptions{Limit: 10})
			if err != nil {
				t.Fatalf("%s %q: %v", label, q.Text, err)
			}
			cold, err := eng.Search(ctx, q.Text, shard.SearchOptions{Limit: 10, NoCache: true})
			if err != nil {
				t.Fatalf("%s %q: %v", label, q.Text, err)
			}
			if len(warm.Hits) != len(cold.Hits) {
				t.Fatalf("%s %q: cached %d hits vs cold %d", label, q.Text, len(warm.Hits), len(cold.Hits))
			}
			for i := range warm.Hits {
				if warm.Hits[i].DocID != cold.Hits[i].DocID || warm.Hits[i].Score != cold.Hits[i].Score {
					t.Fatalf("%s %q hit %d: cached (%d, %g) vs cold (%d, %g)", label, q.Text, i,
						warm.Hits[i].DocID, warm.Hits[i].Score, cold.Hits[i].DocID, cold.Hits[i].Score)
				}
			}
		}
	}
	check("quiesced")

	// Compaction must not change a single answer byte.
	eng.ForceMerge()
	st := eng.Stats()
	if st.Segments != 0 || st.Tombstones != 0 {
		t.Fatalf("ForceMerge left %d segments, %d tombstones", st.Segments, st.Tombstones)
	}
	check("merged")
}

// TestSaveLoadRoundTripAt10k is the persistence half of the scale-truth
// suite: a 10k-document engine checkpointed through the block-postings
// codec (v2 envelopes, compressed stored fields) must verify clean and
// reload into an engine whose rankings are byte-identical to the one
// that saved — the on-disk block metadata pruning exactly like the
// in-memory metadata at a scale where every skip path fires.
func TestSaveLoadRoundTripAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-doc engine")
	}
	g := corpus.New(corpus.Spec{TargetDocs: 10_000, Seed: 31})
	eng, err := shard.BuildStream(nil, semindex.FullInf, g, shard.Options{Shards: 4})
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := eng.Save(base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if rep := shard.Fsck(base); !rep.OK() {
		t.Fatalf("fsck after 10k save:\n%s", rep)
	}
	back, err := shard.Load(base, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.NumDocs() != eng.NumDocs() {
		t.Fatalf("reloaded %d docs, want %d", back.NumDocs(), eng.NumDocs())
	}
	ctx := context.Background()
	queries := loadgen.GenerateQueries(loadgen.VocabFromUniverse(g.Universe()), nil, 150, 32)
	for _, q := range queries {
		if q.Class == loadgen.ClassSuggest {
			continue
		}
		want, err := eng.Search(ctx, q.Text, shard.SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		got, err := back.Search(ctx, q.Text, shard.SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("%q: reloaded %d hits vs %d", q.Text, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i].DocID != want.Hits[i].DocID || got.Hits[i].Score != want.Hits[i].Score {
				t.Fatalf("%q hit %d: reloaded (%d, %g) vs saved (%d, %g)", q.Text, i,
					got.Hits[i].DocID, got.Hits[i].Score, want.Hits[i].DocID, want.Hits[i].Score)
			}
		}
	}
}
