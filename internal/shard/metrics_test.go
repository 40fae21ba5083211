package shard

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// TestEngineMetrics wires a fresh registry through SetMetrics and checks
// every search-path series moves: query counters, whole-query and
// per-shard latency histograms, ingest timing, and the degraded/missing
// counters when a shard blows its deadline.
func TestEngineMetrics(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:len(pages)-1], Options{Shards: 3})
	r := obs.NewRegistry()
	e.SetMetrics(r)

	searchN(e, "goal", 10)
	searchN(e, "yellow card", 10)
	ingestPage(e, pages[len(pages)-1])

	if got := r.Counter(metricSearches).Value(); got != 2 {
		t.Errorf("searches = %d, want 2", got)
	}
	if got := r.Histogram(metricSearchSec, nil).Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
	for i := 0; i < e.NumShards(); i++ {
		h := r.Histogram(metricShardSearch, nil, obs.L("shard", strconv.Itoa(i)))
		if h.Count() != 2 {
			t.Errorf("shard %d search observations = %d, want 2", i, h.Count())
		}
	}
	if got := r.Histogram(metricIngestSec, nil).Count(); got != 1 {
		t.Errorf("ingest observations = %d, want 1", got)
	}
	if got := r.Counter(metricDegraded).Value(); got != 0 {
		t.Errorf("degraded = %d before any deadline miss", got)
	}

	e.SetStall(stallShard(1, 300*time.Millisecond))
	_, rep := searchWithin(e, "goal", 10, 10*time.Millisecond)
	if !rep.Degraded {
		t.Fatal("stalled shard met a 10ms budget")
	}
	if got := r.Counter(metricDegraded).Value(); got != 1 {
		t.Errorf("degraded = %d, want 1", got)
	}
	if got := r.Counter(metricMissing).Value(); got != uint64(len(rep.Missing)) {
		t.Errorf("missing = %d, want %d", got, len(rep.Missing))
	}
	if got := r.Counter(metricSearches).Value(); got != 3 {
		t.Errorf("searches = %d after deadline query, want 3", got)
	}
}

// TestMergeMetricsCountEveryCompaction: each installed shard compaction
// counts once and is timed once, whether ForceMerge or Save's checkpoint
// ran it.
func TestMergeMetricsCountEveryCompaction(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	r := obs.NewRegistry()
	e.SetMetrics(r)
	// One page of each shard, re-upserted, dirties both shards.
	var dirty []*crawler.MatchPage
	for s := 0; s < 2; s++ {
		for _, p := range pages {
			if shardFor(p.ID, 2) == s {
				dirty = append(dirty, p)
				break
			}
		}
	}
	for step, c := range []struct {
		name    string
		compact func() error
	}{
		{"ForceMerge", func() error { e.ForceMerge(); return nil }},
		{"Save", func() error { return e.Save(filepath.Join(t.TempDir(), "idx")) }},
	} {
		if _, err := e.Ingest(context.Background(), dirty, IngestOptions{Merge: MergeNone}); err != nil {
			t.Fatal(err)
		}
		if err := c.compact(); err != nil {
			t.Fatal(err)
		}
		want := uint64(2 * (step + 1))
		if got := r.Counter(metricMerges).Value(); got != want {
			t.Errorf("after %s: merges = %d, want %d", c.name, got, want)
		}
		if got := r.Histogram(metricMergeSec, nil).Count(); got != want {
			t.Errorf("after %s: merge latency observations = %d, want %d", c.name, got, want)
		}
	}
}

// TestEngineMetricsExposition: the engine's series come out of the
// registry in Prometheus text format, per-shard labels and all — what the
// /metrics acceptance criterion scrapes.
func TestEngineMetricsExposition(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	r := obs.NewRegistry()
	e.SetMetrics(r)
	searchN(e, "goal", 10)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE shard_engine_searches_total counter",
		"shard_engine_searches_total 1",
		"# TYPE shard_engine_search_seconds histogram",
		"shard_engine_search_seconds_count 1",
		`shard_search_seconds_bucket{shard="0",le="+Inf"} 1`,
		`shard_search_seconds_bucket{shard="1",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestDisabledMetrics: SetMetrics(nil) strips instrumentation without
// breaking any search path — the uninstrumented arm of BenchmarkObsOverhead.
func TestDisabledMetrics(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	e.SetMetrics(nil)
	assertSameHits(t, "metrics off", searchN(e, "goal", 10), mono.Search("goal", 10))
	if _, rep := searchWithin(e, "goal", 10, time.Second); rep.Degraded {
		t.Fatalf("healthy deadline search degraded: %+v", rep)
	}
	e.Suggest("mesi goal")
}

// TestSearchTracedSpans: a traced query records one span per shard plus
// the merge, and the rendered line carries the trace ID.
func TestSearchTracedSpans(t *testing.T) {
	pages, mono := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	tr := obs.NewTrace("goal")
	res, err := e.Search(context.Background(), "goal", SearchOptions{Limit: 10, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	assertSameHits(t, "traced", res.Hits, mono.Search("goal", 10))

	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"shard0", "shard1", "shard2", "merge"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
	if line := tr.String(); !strings.Contains(line, tr.ID) || !strings.Contains(line, "merge=") {
		t.Errorf("trace line %q missing ID or merge span", line)
	}
}

// TestSuggestEquivalence holds the deduplicated correction core to its
// contract: for a table of misspelled queries, the 1-shard engine, the
// multi-shard engine and the monolith all propose the same correction,
// because all three run semindex.CorrectQuery over the same vocabulary.
func TestSuggestEquivalence(t *testing.T) {
	pages, mono := fixture(t)
	one := Build(nil, semindex.FullInf, pages, Options{Shards: 1})
	four := Build(nil, semindex.FullInf, pages, Options{Shards: 4})
	for _, q := range []string{
		"mesi goal",
		"barcelon goal",
		"yelow card",
		"mesi barcelona gol",
		"messi goal",  // clean: no correction anywhere
		"zzzqqq goal", // hopeless token: no near neighbour
		"the of",      // pure stopwords
		"",            // empty query
	} {
		want := mono.Suggest(q)
		if got := one.Suggest(q); got != want {
			t.Errorf("1-shard Suggest(%q) = %q, monolith %q", q, got, want)
		}
		if got := four.Suggest(q); got != want {
			t.Errorf("4-shard Suggest(%q) = %q, monolith %q", q, got, want)
		}
	}
}

// TestConcurrentSearchWithMetrics drives Search, SearchDeadline, Suggest
// and Ingest against one shared registry under -race: the lock-free
// handles and the engine's met swap must tolerate full interleaving. The
// final counter value is exact because counters are atomic.
func TestConcurrentSearchWithMetrics(t *testing.T) {
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages[:len(pages)-2], Options{Shards: 3})
	r := obs.NewRegistry()
	e.SetMetrics(r)

	const workers, iters = 6, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (w+i)%2 == 0 {
					searchN(e, "goal", 5)
				} else {
					searchWithin(e, "foul", 5, time.Second)
				}
				e.Suggest("mesi")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pages[len(pages)-2:] {
			ingestPage(e, p)
		}
	}()
	wg.Wait()

	if got := r.Counter(metricSearches).Value(); got != workers*iters {
		t.Errorf("searches = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram(metricIngestSec, nil).Count(); got != 2 {
		t.Errorf("ingest observations = %d, want 2", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}

// TestLoadedEngineHasMetrics: an engine reconstructed by Load must carry
// live metric handles — a save/load round-trip then a search must not
// panic and must count on the default registry's series.
func TestLoadedEngineHasMetrics(t *testing.T) {
	_, base := saveFixture(t, 2)
	loaded, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	loaded.SetMetrics(r)
	if hits := searchN(loaded, "goal", 10); len(hits) == 0 {
		t.Fatal("loaded engine found nothing")
	}
	if got := r.Counter(metricSearches).Value(); got != 1 {
		t.Errorf("loaded engine searches = %d, want 1", got)
	}
}
