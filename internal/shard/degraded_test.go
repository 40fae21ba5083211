package shard

import (
	"sync"
	"testing"
	"time"

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
