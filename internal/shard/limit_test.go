package shard

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/semindex"
)

// TestSearchNegativeLimitNormalized pins the limit<=0 contract: every
// non-positive limit means "all matches" and is normalized before the
// scatter and the cache key, so limit -1 and limit 0 are the same query.
func TestSearchNegativeLimitNormalized(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	const q = "goal by player"

	all := searchN(e, q, 0)
	if len(all) == 0 {
		t.Fatal("fixture query matched nothing")
	}
	for _, limit := range []int{-1, -100} {
		assertSameHits(t, "negative limit", searchN(e, q, limit), all)
	}
}

// TestCacheKeyStableAcrossNegativeLimits asserts the normalization reaches
// the query cache: a limit 0 miss fills the entry that limits -1 and -7
// then hit — one cache slot per query, not one per spelling of "all".
func TestCacheKeyStableAcrossNegativeLimits(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	e.EnableCache(1<<20, obs.NewRegistry())
	const q = "corner kick"

	res, err := e.Search(context.Background(), q, SearchOptions{Limit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheMiss {
		t.Fatalf("first call: cache %q, want miss", res.Cache)
	}
	for _, limit := range []int{-1, -7} {
		got, err := e.Search(context.Background(), q, SearchOptions{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cache != CacheHit {
			t.Errorf("limit %d: cache %q, want hit", limit, got.Cache)
		}
		assertSameHits(t, "cached negative limit", got.Hits, res.Hits)
	}
}

// TestSetExhaustiveScoringEquivalence flips every shard to the
// term-at-a-time path and back, asserting the answer — documents, scores,
// order — never changes. This is the engine-level face of the kernel's
// DAAT-equals-exhaustive contract.
func TestSetExhaustiveScoringEquivalence(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	queries := []string{"goal by player", "yellow card", "corner", "free kick save"}
	for _, q := range queries {
		for _, limit := range []int{0, 1, 10} {
			pruned := searchN(e, q, limit)
			e.SetExhaustiveScoring(true)
			exhaustive := searchN(e, q, limit)
			e.SetExhaustiveScoring(false)
			assertSameHits(t, q, pruned, exhaustive)
		}
	}
}

// BenchmarkEngineColdSearch times the full cold scatter at limit 10 on
// both scoring paths, so the pruned kernel's margin over the exhaustive
// one can be read off directly; CI runs it once to keep both arms live.
func BenchmarkEngineColdSearch(b *testing.B) {
	pages, _ := fixture(b)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	queries := []string{"goal by player", "yellow card", "corner", "free kick save"}
	for _, arm := range []struct {
		name       string
		exhaustive bool
	}{{"Pruned", false}, {"Exhaustive", true}} {
		b.Run(arm.name, func(b *testing.B) {
			e.SetExhaustiveScoring(arm.exhaustive)
			defer e.SetExhaustiveScoring(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searchN(e, queries[i%len(queries)], 10)
			}
		})
	}
}
