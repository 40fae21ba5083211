package shard

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
)

// TestSearchAllocationCeiling bounds what one cold Engine.Search allocates
// on a two-shard engine at limit 10, per query class, on a heap engine and
// on the same engine saved and reopened mapped. The fixture is far under two
// scatter slices (sliceDocs), so the scatter starts no goroutine and both
// shards are searched on the caller's. The ceilings sit well above the
// measured figures: keyword 38, phrase 44, fuzzy 41, heap and mapped alike,
// since every shard builds its scorer tree, similarity values and mapped
// block buffers in a pooled arena (index/arena.go). What remains is the
// query's binding, the scatter's result slice and the closure it hands the
// claim loop, and the merge, none of it per posting cursor, so a mapped
// search must not allocate more than a heap one. While every search started
// a helper goroutine, whose claim counter, wait group and closure were
// allocated per search, the figures were 40, 46 and 43. Before the arena
// they were 108, 94 and 121 on the heap and 144, 130 and 145 mapped, two
// buffers per mapped cursor; before that, 115, 339 and 289 on the heap when
// every shard re-parsed the text and every field clause re-analyzed it, and
// 377, 409 and 276 mapped when cursors grew up to five buffers each by
// append. A change that brings back a heap allocation per clause or per
// cursor, per-shard parsing, per-field analysis or a vocabulary copy per
// fuzzy clause fails here before it shows in the benchmark.
//
// The mapped-versus-heap comparison runs on a one-shard heap engine and on
// the same engine saved and reopened mapped, where a search allocates
// only for the kernel, the one-slot scatter and the merge. Each class then
// runs on the one-shard heap engine with metrics on and with them stripped
// (SetMetrics(nil)), and the two must allocate exactly as much:
// instrumentation is preallocated handles and atomic adds, so a metric
// that allocates per search fails here instead of as a few percent of
// latency. Both comparisons hold only without -race, which randomises what
// sync.Pool keeps.
func TestSearchAllocationCeiling(t *testing.T) {
	heap, base := saveFixture(t, 2)
	mapped := loadMapped(t, base)
	single, singleBase := saveFixture(t, 1)
	singleMapped := loadMapped(t, singleBase)
	opts := SearchOptions{Limit: 10, NoCache: true}
	allocs := func(e *Engine, query string) float64 {
		// A collection mid-run empties the sync.Pools, and refilling them
		// would count against whichever arm it landed in; so would growing
		// the pooled arenas to the arm's first searches.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for range 10 {
			e.Search(context.Background(), query, opts)
		}
		return testing.AllocsPerRun(50, func() { e.Search(context.Background(), query, opts) })
	}
	classes := []struct {
		class, query string
		heap, mapped float64
	}{
		{"keyword", "messi barcelona goal", 53, 53},
		{"phrase", `"yellow card" barcelona`, 61, 61},
		{"fuzzy", "mesi~ goal", 57, 57},
	}
	for _, c := range classes {
		for _, arm := range []struct {
			name    string
			e       *Engine
			ceiling float64
		}{{"heap", heap, c.heap}, {"mapped", mapped, c.mapped}} {
			res, err := arm.e.Search(context.Background(), c.query, opts)
			if err != nil || len(res.Hits) == 0 {
				t.Fatalf("%s %s %q: %d hits, err %v", arm.name, c.class, c.query, len(res.Hits), err)
			}
			got := allocs(arm.e, c.query)
			t.Logf("%s %s: %v allocations per search", arm.name, c.class, got)
			if got > arm.ceiling {
				t.Errorf("%s %s %q: %v allocations per search, ceiling %v", arm.name, c.class, c.query, got, arm.ceiling)
			}
		}
	}

	if raceEnabled {
		t.Log("mapped vs heap and instrumented vs uninstrumented not compared: -race makes pooled allocations random")
		return
	}
	for _, c := range classes {
		heapAllocs, mappedAllocs := allocs(single, c.query), allocs(singleMapped, c.query)
		t.Logf("one shard %s: %v allocations per heap search, %v per mapped search", c.class, heapAllocs, mappedAllocs)
		if c.class != "phrase" && mappedAllocs > heapAllocs {
			t.Errorf("%s %q: %v allocations per mapped search, %v per heap search", c.class, c.query, mappedAllocs, heapAllocs)
		}
		single.SetMetrics(obs.NewRegistry())
		instrumented := allocs(single, c.query)
		single.SetMetrics(nil)
		bare := allocs(single, c.query)
		t.Logf("one shard %s: %v allocations per search instrumented, %v uninstrumented", c.class, instrumented, bare)
		if instrumented != bare {
			t.Errorf("%s %q: %v allocations per instrumented search, %v uninstrumented; metrics must not allocate",
				c.class, c.query, instrumented, bare)
		}
	}
}

// loadMapped opens a saved engine mapped, closed when the test ends.
func loadMapped(t *testing.T, base string) *Engine {
	t.Helper()
	e, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}
