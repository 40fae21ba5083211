package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/semindex"
)

// cachedEngine builds a 4-shard engine over the fixture with the query
// cache wired to r, so tests can read the cache counters in isolation.
func cachedEngine(t testing.TB, r *obs.Registry) *Engine {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	e.EnableCache(1<<20, r)
	return e
}

// TestCacheHitIdenticalToCold is the cache's core guarantee: a hit is
// byte-identical to the cold scatter that filled it, and to an uncached
// (NoCache) run of the same query.
func TestCacheHitIdenticalToCold(t *testing.T) {
	r := obs.NewRegistry()
	e := cachedEngine(t, r)
	for _, q := range eval.PaperQueries() {
		cold, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Cache != CacheMiss {
			t.Errorf("%s: first query status %q, want miss", q.ID, cold.Cache)
		}
		warm, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cache != CacheHit {
			t.Errorf("%s: second query status %q, want hit", q.ID, warm.Cache)
		}
		bypass, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if bypass.Cache != CacheBypass {
			t.Errorf("%s: NoCache status %q, want bypass", q.ID, bypass.Cache)
		}
		assertSameHits(t, q.ID+"/warm-vs-cold", warm.Hits, cold.Hits)
		assertSameHits(t, q.ID+"/warm-vs-bypass", warm.Hits, bypass.Hits)
	}
	if hits := r.Counter(qcache.MetricHits).Value(); hits != uint64(len(eval.PaperQueries())) {
		t.Errorf("cache hits = %d, want %d", hits, len(eval.PaperQueries()))
	}
}

// TestCacheKeyNormalization: whitespace shape does not fragment the
// cache, but different limits and different queries do.
func TestCacheKeyNormalization(t *testing.T) {
	r := obs.NewRegistry()
	e := cachedEngine(t, r)
	first, _ := e.Search(context.Background(), "messi barcelona goal", SearchOptions{Limit: 10})
	spaced, _ := e.Search(context.Background(), "  messi   barcelona\tgoal ", SearchOptions{Limit: 10})
	if spaced.Cache != CacheHit {
		t.Errorf("whitespace variant status %q, want hit", spaced.Cache)
	}
	assertSameHits(t, "whitespace variant", spaced.Hits, first.Hits)
	if other, _ := e.Search(context.Background(), "messi barcelona goal", SearchOptions{Limit: 5}); other.Cache != CacheMiss {
		t.Errorf("different limit status %q, want miss", other.Cache)
	}
}

// TestSingleflightCoalescesQueries: N concurrent identical cold queries
// run exactly one scatter; one caller reports miss, the rest coalesced,
// and everyone gets the same ranking. Run under -race this also proves
// the flight handoff is clean.
func TestSingleflightCoalescesQueries(t *testing.T) {
	r := obs.NewRegistry()
	e := cachedEngine(t, r)
	var scatters atomic.Int64
	release := make(chan struct{})
	e.SetStall(func(i int) {
		if i == 0 {
			scatters.Add(1)
		}
		<-release
	})

	const n = 8
	var wg sync.WaitGroup
	results := make([]SearchResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Search(context.Background(), "messi barcelona goal", SearchOptions{Limit: 10})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	// Hold the scatter open until every follower has joined the flight.
	deadline := time.Now().Add(5 * time.Second)
	for r.Counter(qcache.MetricCoalesced).Value() < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	e.SetStall(nil)

	if got := scatters.Load(); got != 1 {
		t.Errorf("%d scatters ran, want 1", got)
	}
	misses, coalesced := 0, 0
	for i, res := range results {
		switch res.Cache {
		case CacheMiss:
			misses++
		case CacheCoalesced:
			coalesced++
		default:
			t.Errorf("caller %d status %q", i, res.Cache)
		}
		assertSameHits(t, "coalesced caller", res.Hits, results[0].Hits)
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("statuses: %d miss / %d coalesced, want 1 / %d", misses, coalesced, n-1)
	}
}

// TestDegradedAnswersNotCached: an answer missing a shard must not be
// served to later callers — the next healthy query runs cold and
// complete.
func TestDegradedAnswersNotCached(t *testing.T) {
	r := obs.NewRegistry()
	e := cachedEngine(t, r)
	var stalling atomic.Bool
	stalling.Store(true)
	e.SetStall(func(i int) {
		if i == 1 && stalling.Load() {
			time.Sleep(500 * time.Millisecond)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := e.Search(ctx, "goal", SearchOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Degraded {
		t.Skip("stalled shard met the deadline; cannot exercise the degraded path")
	}

	stalling.Store(false)
	healthy, err := e.Search(context.Background(), "goal", SearchOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Cache == CacheHit {
		t.Fatal("degraded answer was cached and served as a hit")
	}
	if healthy.Report.Degraded {
		t.Fatal("healthy re-query still degraded")
	}
	bypass, _ := e.Search(context.Background(), "goal", SearchOptions{Limit: 10, NoCache: true})
	assertSameHits(t, "healthy after degraded", healthy.Hits, bypass.Hits)
}

// TestConcurrentCachedSearchAndIngest is the cached twin of the engine's
// concurrency test: searches race ingests with the cache on, the race
// detector arbitrates, and the final state serves the full corpus.
func TestConcurrentCachedSearchAndIngest(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:3], Options{Shards: 3})
	e.EnableCache(1<<20, obs.NewRegistry())
	queries := []string{"goal", "punishment", "messi barcelona goal", "yellow card"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := e.Search(context.Background(), q, SearchOptions{Limit: 10}); err != nil {
					t.Errorf("search: %v", err)
				}
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
	// Concurrent ingest order permutes global docIDs, so the monolith is
	// not a valid reference here; the invariant is that the cached path
	// agrees with a forced-cold scatter over the final state.
	for _, q := range eval.PaperQueries() {
		res, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := e.Search(context.Background(), q.Keywords, SearchOptions{Limit: 10, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, q.ID+"/final", res.Hits, cold.Hits)
	}
}

// TestEntryBytesChargesHitSize: a cached answer is charged what its hit
// structs occupy, not a padded guess — an overcharge makes a cache of a
// given capacity hold fewer hits than it is sized for.
func TestEntryBytesChargesHitSize(t *testing.T) {
	hits := make([]semindex.Hit, 1000)
	got := entryBytes("q", hits) - entryBytes("q", nil)
	if want := int64(len(hits)) * int64(unsafe.Sizeof(semindex.Hit{})); got != want {
		t.Fatalf("1000 hits charged %d bytes, want %d", got, want)
	}
}
