package shard

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/semindex"
)

// stallShard returns a hook delaying exactly one shard by d.
func stallShard(target int, d time.Duration) func(int) {
	return func(shard int) {
		if shard == target {
			time.Sleep(d)
		}
	}
}

// TestSearchDeadlineHealthy: with no shard stalled, the deadline path is
// byte-identical to the unbounded path and reports a complete answer.
func TestSearchDeadlineHealthy(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	for _, q := range []string{"goal", "messi barcelona goal", "yellow card"} {
		want := searchN(e, q, 10)
		got, rep := searchWithin(e, q, 10, 5*time.Second)
		if rep.Degraded || len(rep.Missing) != 0 {
			t.Fatalf("%q: healthy engine reported degraded: %+v", q, rep)
		}
		assertSameHits(t, q, got, want)
	}
}

// TestSearchDeadlineNoBudgetMeansUnbounded: perShard <= 0 disables the
// deadline entirely.
func TestSearchDeadlineNoBudgetMeansUnbounded(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	e.SetStall(stallShard(1, 30*time.Millisecond))
	got, rep := searchWithin(e, "goal", 10, 0)
	if rep.Degraded {
		t.Fatalf("unbounded search degraded: %+v", rep)
	}
	assertSameHits(t, "unbounded", got, searchN(e, "goal", 10))
}

// TestSearchDeadlineDegraded is the degraded-search acceptance test: with
// one shard stalled past the budget, the query returns within the budget,
// the merge is correct over the live shards, and the report names the
// stalled shard.
func TestSearchDeadlineDegraded(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	const stalled = 1
	e.SetStall(stallShard(stalled, 2*time.Second))

	// Reference: what the live shards alone contribute. Computed on an
	// identically-built engine with no stall so the merge is ground truth.
	ref := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	refPer := func(q string, limit int) []semindex.Hit {
		ref.mu.RLock()
		defer ref.mu.RUnlock()
		pq := ref.prepareLocked(q)
		per := ref.scatter(nil, func(s int) []rankedHit {
			return ref.searchShardLocked(s, limit, func(si *semindex.SemanticIndex) []index.Hit {
				return si.SearchPrepared(pq, limit)
			})
		})
		per[stalled] = nil
		return ref.merge(nil, per, limit)
	}

	for _, q := range []string{"goal", "foul", "yellow card"} {
		start := time.Now()
		got, rep := searchWithin(e, q, 10, 100*time.Millisecond)
		elapsed := time.Since(start)
		if elapsed > time.Second {
			t.Fatalf("%q: degraded search took %v, budget was 100ms", q, elapsed)
		}
		if !rep.Degraded || !reflect.DeepEqual(rep.Missing, []int{stalled}) {
			t.Fatalf("%q: report = %+v, want degraded with shard %d missing", q, rep, stalled)
		}
		want := refPer(q, 10)
		if len(want) == 0 {
			t.Fatalf("%q: live shards hold no results; fixture too small", q)
		}
		assertSameHits(t, q+" (degraded)", got, want)
	}
}

// TestSearchDeadlineStragglerBlocksIngest: an abandoned shard goroutine
// holds the read lock via the drain goroutine, so a subsequent ingest
// cannot mutate state under it. The race detector is the real assertion
// here; the test also checks ingest correctness after the straggler lands.
func TestSearchDeadlineStragglerBlocksIngest(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:len(pages)-1], Options{Shards: 2})
	e.SetStall(stallShard(0, 150*time.Millisecond))

	_, rep := searchWithin(e, "goal", 5, 10*time.Millisecond)
	if !rep.Degraded {
		t.Fatal("stalled shard met a 10ms budget")
	}
	// Removing the stall takes the write lock, so it queues behind the
	// straggler's read lock — exactly the ordering under test.
	e.SetStall(nil)
	ingestPage(e, pages[len(pages)-1])
	if e.NumDocs() == 0 {
		t.Fatal("ingest lost documents")
	}
	// After the dust settles the engine still answers completely.
	got, rep := searchWithin(e, "goal", 5, 5*time.Second)
	if rep.Degraded || len(got) == 0 {
		t.Fatalf("engine unhealthy after straggler: %d hits, %+v", len(got), rep)
	}
}

// TestSearchDeadlineConcurrent: degraded searches, healthy searches and
// ingests interleave safely (exercised under -race in CI).
func TestSearchDeadlineConcurrent(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:len(pages)-2], Options{Shards: 3})
	e.SetStall(func(shard int) {
		if shard == 2 {
			time.Sleep(5 * time.Millisecond)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				searchWithin(e, "goal", 5, time.Millisecond)
				searchN(e, "foul", 5)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pages[len(pages)-2:] {
			ingestPage(e, p)
		}
	}()
	wg.Wait()
	hits, rep := searchWithin(e, "goal", 10, 5*time.Second)
	if rep.Degraded || len(hits) == 0 {
		t.Fatalf("engine unhealthy after churn: %d hits, %+v", len(hits), rep)
	}
}
