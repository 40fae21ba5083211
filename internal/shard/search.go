package shard

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
)

// SearchOptions configures one unified Search call. The zero value is a
// plain unbounded keyword search: every match, no trace, cache allowed.
type SearchOptions struct {
	// Limit caps the merged result list; <= 0 returns every match.
	Limit int
	// Trace, when non-nil, receives per-shard "shardN" spans and the
	// "merge" span. Tracing never changes the answer, so it is excluded
	// from the cache key; a cache hit simply records no shard spans
	// (there was no scatter to time).
	Trace *obs.Trace
	// NoCache bypasses the query-result cache and the singleflight layer
	// for this call — the always-cold path benchmarks and invalidation
	// tests compare against.
	NoCache bool
}

// CacheStatus reports how a Search answer was produced.
type CacheStatus string

const (
	// CacheHit: served from a valid cache entry, no scatter ran.
	CacheHit CacheStatus = "hit"
	// CacheMiss: this call ran the scatter-gather (and filled the cache
	// when the answer was complete).
	CacheMiss CacheStatus = "miss"
	// CacheCoalesced: shared a concurrent identical query's scatter via
	// the singleflight layer.
	CacheCoalesced CacheStatus = "coalesced"
	// CacheBypass: the cache was off or the call opted out (NoCache).
	CacheBypass CacheStatus = "bypass"
)

// SearchResult is the unified Search answer: the globally-ranked hits,
// the degradation report, and how the cache participated.
type SearchResult struct {
	// Hits is the merged global ranking (global docIDs).
	Hits []semindex.Hit
	// Report describes completeness: degraded answers name the shards
	// that missed the deadline. Degraded answers are never cached.
	Report SearchReport
	// Cache tells how this answer was produced (hit/miss/coalesced/bypass).
	Cache CacheStatus
}

// Search is the engine's one query entry point: it fans the keyword
// query out to every shard (base + unmerged segments), merges the
// per-shard top-k lists into the global top-k, and returns hits whose
// DocIDs are global. Because every sub-index scores with the maintained
// corpus-wide statistics and local order equals global order within a
// sub, the result — documents and scores — is identical to searching a
// monolithic index over the same live corpus, at any merge state.
//
// The context carries the deadline: with no deadline the call waits for
// every shard; with one, shards that miss it are dropped from the merge
// and named in the report (degraded serving). A ctx that is already done
// returns its error without searching, and a closed engine refuses the
// query with an error.
//
// When a query-result cache is installed (EnableCache), complete
// answers are cached under the engine epoch their scatter read. A commit
// that adds or tombstones a document, or a statistics exchange, bumps the
// epoch, so any write evicts every cached answer: a lookup serves an
// entry only when its epoch is the current one. Degraded answers are
// never cached.
func (e *Engine) Search(ctx context.Context, query string, opts SearchOptions) (SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	// Every non-positive limit means "all matches". Normalize to 0 before
	// anything looks at it so (a) the limit pushed down to each shard is
	// the canonical form and (b) the cache key for limit -1 and limit 0 is
	// the same entry — they are the same query.
	if opts.Limit < 0 {
		opts.Limit = 0
	}
	// Snapshot the swappable state and the epoch under the read lock:
	// SetMetrics and EnableCache replace the former under the write lock,
	// and every write bumps the latter under it.
	e.mu.RLock()
	cache, flight, met, epoch := e.cache, e.flight, e.met, e.epoch
	e.mu.RUnlock()
	if cache == nil || opts.NoCache {
		res, _, err := e.searchCold(ctx, query, opts)
		res.Cache = CacheBypass
		return res, err
	}
	start := time.Now()
	key := e.cacheKey(query, opts)
	if v, ok := cache.Get(key, epoch); ok {
		ent := v.(*cacheEntry)
		met.cacheHit.ObserveDuration(time.Since(start))
		return SearchResult{Hits: cloneHits(ent.hits), Report: ent.report, Cache: CacheHit}, nil
	}
	v, leader, err := flight.Do(ctx, key, func() any {
		res, epoch, err := e.searchCold(ctx, query, opts)
		if err != nil {
			return err
		}
		if !res.Report.Degraded {
			// The cache owns a private copy: callers are free to truncate
			// or reorder their slice without poisoning later hits. The
			// entry is stored under the epoch the scatter read under its
			// own read lock: the epoch this answer is exact at, even when
			// a write landed after the lookup above.
			ent := &cacheEntry{hits: cloneHits(res.Hits), report: res.Report}
			cache.Put(key, ent, entryBytes(key, ent.hits), epoch)
		}
		return res
	})
	if err != nil {
		return SearchResult{}, err
	}
	if err, ok := v.(error); ok {
		return SearchResult{}, err
	}
	res := v.(SearchResult)
	if leader {
		res.Cache = CacheMiss
		met.cacheMiss.ObserveDuration(time.Since(start))
		return res, nil
	}
	// Followers share the leader's slice; hand each its own copy.
	return SearchResult{Hits: cloneHits(res.Hits), Report: res.Report, Cache: CacheCoalesced}, nil
}

// cacheEntry is the cached value for one query shape.
type cacheEntry struct {
	hits   []semindex.Hit
	report SearchReport
}

// cacheKey builds the cache key: normalized query (whitespace collapsed
// — case and token order are preserved because the analyzer, not the
// cache, decides their meaning), the semantic level and the limit. The
// other options (Trace, NoCache) never change the bytes of an answer, so
// they stay out of the key; an option that alters ranking or result shape
// must be folded in here.
func (e *Engine) cacheKey(query string, opts SearchOptions) string {
	norm := strings.Join(strings.Fields(query), " ")
	return norm + "\x00" + string(e.level) + "\x00" + strconv.Itoa(opts.Limit)
}

// entryBytes estimates a cached answer's resident cost: key, entry
// bookkeeping and the hit structs. A hit holds no stored document (it
// reads one through the engine when asked), so there is none to charge.
func entryBytes(key string, hits []semindex.Hit) int64 {
	// cacheEntry 56 B, qcache entry 48, LRU element 40, map slot ~32 on
	// 64-bit: ~176, rounded up to 192.
	const entryOverhead = 192
	return int64(len(key)) + entryOverhead + int64(len(hits))*int64(unsafe.Sizeof(semindex.Hit{}))
}

// cloneHits copies a hit slice so cache, leader and followers never
// share a mutable header.
func cloneHits(hits []semindex.Hit) []semindex.Hit {
	if hits == nil {
		return nil
	}
	return append([]semindex.Hit(nil), hits...)
}

// searchCold runs the actual scatter-gather under the read lock and
// returns the answer with the engine epoch read under that same lock, the
// epoch a cached copy of the answer is valid at. The context deadline,
// when present, is the per-scatter collection budget: shards that miss it
// are dropped from the merge and reported. A closed engine returns
// errClosed, since its mapped bases are unmapped.
func (e *Engine) searchCold(ctx context.Context, query string, opts SearchOptions) (SearchResult, uint64, error) {
	start := time.Now()
	tr := opts.Trace
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return SearchResult{}, 0, errClosed
	}
	epoch := e.epoch
	// The text is parsed and analyzed here, once; shards and segments only
	// look its terms up.
	pq := e.prepareLocked(query)
	// Limit pushdown: each sub-index returns only its local top-limit.
	// That is safe for the global merge because every sub scores with the
	// corpus-wide statistics and its local ID order is its global ID
	// order — no document outside a sub's top-limit can sit in the global
	// top-limit. The pushed-down limit is also what the index kernel
	// prunes against, and with it one shared bar: every sub searched
	// raises the bar to its k-th best score and skips what scores below
	// it, which the merge would drop. Under a deadline each shard keeps a
	// bar of its own, shared by its base and segments only: a shard that
	// raised a shared bar could still miss the deadline and be left out
	// of the merge, taking the hits that beat the bar with it.
	// At limit 0, where every match is returned, the kernel ignores bars.
	dl, hasDeadline := ctx.Deadline()
	shared := new(index.Bar)
	fn := func(s int) []rankedHit {
		bar := shared
		if hasDeadline {
			bar = new(index.Bar)
		}
		return e.searchShardLocked(s, opts.Limit, func(ix *index.Index) []index.Hit {
			if e.exhaustive {
				return pq.ExhaustiveSearch(ix, opts.Limit)
			}
			return pq.Search(ix, opts.Limit, bar)
		})
	}
	met := e.met
	met.searches.Inc()
	var per [][]rankedHit
	var rep SearchReport
	release := e.mu.RUnlock
	if hasDeadline {
		per, rep, release = e.scatterDeadline(ctx, tr, fn, time.Until(dl))
	} else {
		per = e.scatter(tr, fn)
	}
	if len(e.quarantined) > 0 {
		// Degraded startup: shards quarantined at load time answer from
		// empty placeholders, so every answer is missing their documents.
		// Name them exactly like deadline-missed shards — one degradation
		// surface for callers, headers and /readyz.
		rep.Degraded = true
		rep.Missing = mergeMissing(e.quarantined, rep.Missing)
	}
	hits := e.merge(tr, per, opts.Limit)
	release()
	if rep.Degraded {
		met.degraded.Inc()
		met.missing.Add(uint64(len(rep.Missing)))
	}
	met.latency.ObserveDuration(time.Since(start))
	return SearchResult{Hits: hits, Report: rep}, epoch, nil
}

// prepareLocked routes and analyzes a search's text for the whole engine
// and binds the corpus-wide statistics into it: every sub-index is built
// at the engine's level with the engine's analyzer. A "name:" prefix is
// field syntax when some live document of the corpus carries the field —
// what a monolithic index over the same corpus would answer — not when the
// sub-index evaluating the query happens to. Read lock required.
func (e *Engine) prepareLocked(query string) semindex.PreparedQuery {
	hasField := func(name string) bool { return e.global.Fields[name] != nil }
	return semindex.Prepare(e.level, e.base[0].ix.Analyzer(), hasField, query, e.global)
}

// rankedHit is a hit on its way through the scatter-gather, ranked by
// score and global docID.
type rankedHit struct {
	gid   int
	score float64
}

// searchShardLocked runs search against one shard — base plus unmerged
// segments — and returns its local top-limit ranked exactly as the global
// merge ranks (score descending, global ID ascending). Read lock must be
// held for the duration (the scatter holds it).
func (e *Engine) searchShardLocked(s, limit int, search func(*index.Index) []index.Hit) []rankedHit {
	// A sub's result order is already score desc, local (= global) ID asc;
	// mapping IDs preserves it.
	ranked := func(sub *subIndex) []rankedHit {
		raw := search(sub.ix)
		out := make([]rankedHit, len(raw))
		for i, h := range raw {
			out[i] = rankedHit{gid: sub.gids[h.DocID], score: h.Score}
		}
		return out
	}
	if len(e.segs[s]) == 0 {
		return ranked(e.base[s])
	}
	subs := e.subsLocked(s)
	lists := make([][]rankedHit, len(subs))
	for i, sub := range subs {
		lists[i] = ranked(sub)
	}
	return mergeRanked(lists, limit)
}

// mergeRanked merges ranked lists into one ranking: score descending,
// global docID ascending on ties — exactly the monolith's sort. Every
// input is already in that order, so the merge takes the best head until
// it has limit hits; the lists are few (the shards, or one shard's base
// and unmerged segments). lists is consumed.
func mergeRanked(lists [][]rankedHit, limit int) []rankedHit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]rankedHit, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) == 0 {
				continue
			}
			if best < 0 || l[0].score > lists[best][0].score ||
				(l[0].score == lists[best][0].score && l[0].gid < lists[best][0].gid) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// searchQueryLocked scatters an already-built query (Related's
// more-like-this query), bound to the corpus-wide statistics, across the
// shards. Read lock required.
func (e *Engine) searchQueryLocked(q index.Query, limit int) [][]rankedHit {
	q = index.AnalyzeQuery(q, e.base[0].ix.Analyzer(), e.global)
	return e.scatter(nil, func(s int) []rankedHit {
		return e.searchShardLocked(s, limit, func(ix *index.Index) []index.Hit {
			if e.exhaustive {
				return ix.ExhaustiveSearch(q, limit)
			}
			return ix.Search(q, limit)
		})
	})
}

// timedShard runs fn against one shard on the calling goroutine, timing it
// into the shard's shard_search_seconds series and, when tr is non-nil,
// into a "shardN" trace span.
func (e *Engine) timedShard(tr *obs.Trace, i int, fn func(shard int) []rankedHit) []rankedHit {
	if e.stall != nil {
		e.stall(i)
	}
	start := time.Now()
	hits := fn(i)
	d := time.Since(start)
	e.met.perShard[i].ObserveDuration(d)
	if tr != nil {
		tr.AddSpan("shard"+strconv.Itoa(i), start, d)
	}
	return hits
}

// sliceDocs is how many live documents pay for one goroutine of a
// scatter. On two shards at 10k documents a shard's kernel takes about as
// long as starting a goroutine and waking an idle thread for it: a helper
// claimed a shard in 3% of searches, and every search paid for its start.
// A search on the caller's goroutine alone loses at the 99th percentile
// from 40k documents and at the 95th from 70k (BenchmarkScatterLadder).
const sliceDocs = 16384

// scatter runs fn against every shard and returns once every shard has
// been searched, through the engine's one claim loop (fanOut) with one
// goroutine per sliceDocs live documents, the caller's among them. An
// engine under two slices searches its shards in shard order on the
// caller's goroutine, each against the bar the shards before it raised; a
// larger one starts helpers, at most GOMAXPROCS goroutines in all. fn
// receives the shard index and must only read state guarded by the read
// lock, which the caller holds.
func (e *Engine) scatter(tr *obs.Trace, fn func(shard int) []rankedHit) [][]rankedHit {
	per := make([][]rankedHit, len(e.base))
	fanOut(len(e.base), max(1, e.liveDocs/e.slice), func(i int) {
		per[i] = e.timedShard(tr, i, fn)
	})
	return per
}

// SearchReport annotates a deadline-bounded scatter-gather answer with how
// complete it is: a Degraded answer is correctly merged from the shards
// that met the deadline, with the stalled ones identified.
type SearchReport struct {
	// Degraded is true when at least one shard missed the deadline or
	// was quarantined at load time (corrupt snapshot file).
	Degraded bool
	// Missing lists the shard indices whose results are absent —
	// deadline-missed and quarantined shards alike, sorted ascending.
	Missing []int
}

// mergeMissing unions two ascending shard-index lists without
// duplicates.
func mergeMissing(a, b []int) []int {
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// scatterDeadline fans fn out to every shard and collects results for at
// most perShard (or until ctx is done — a cancelled client stops the
// wait the same way a blown budget does). Stragglers are abandoned, not
// cancelled — they finish in the background, and ingestion stays blocked
// behind them so an abandoned reader can never observe a mid-ingest
// shard. The caller must hold the read lock and must call the returned
// release func after it is done reading engine state: release either
// unlocks immediately (all shards answered) or hands the read lock to a
// drain goroutine that unlocks once the stragglers finish.
func (e *Engine) scatterDeadline(ctx context.Context, tr *obs.Trace, fn func(shard int) []rankedHit, perShard time.Duration) ([][]rankedHit, SearchReport, func()) {
	n := len(e.base)
	type shardResult struct {
		i    int
		hits []rankedHit
	}
	results := make(chan shardResult, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results <- shardResult{i: i, hits: e.timedShard(tr, i, fn)}
		}(i)
	}

	per := make([][]rankedHit, n)
	arrived := make([]bool, n)
	got := 0
	var timeout <-chan time.Time
	if perShard > 0 {
		t := time.NewTimer(perShard)
		defer t.Stop()
		timeout = t.C
	}
collect:
	for got < n {
		select {
		case r := <-results:
			per[r.i] = r.hits
			arrived[r.i] = true
			got++
		case <-timeout:
			break collect
		case <-ctx.Done():
			break collect
		}
	}

	rep := SearchReport{}
	for i, ok := range arrived {
		if !ok {
			rep.Degraded = true
			rep.Missing = append(rep.Missing, i)
		}
	}
	if got == n {
		return per, rep, e.mu.RUnlock
	}
	missing := n - got
	return per, rep, func() {
		// Drain the stragglers off the caller's critical path, then release
		// the read lock from the drain goroutine (sync.RWMutex permits a
		// different goroutine to unlock). Their late results are discarded.
		go func() {
			for i := 0; i < missing; i++ {
				<-results
			}
			e.mu.RUnlock()
		}()
	}
}

// merge produces the global ranking from per-shard lists — score
// descending, global docID ascending on ties, exactly the monolith's sort.
// Its hits read their documents through the engine (Doc, Meta) by
// global docID when asked, so neither a caller's slice nor a cached
// answer holds a sub-index. Read lock must be held.
func (e *Engine) merge(tr *obs.Trace, per [][]rankedHit, limit int) []semindex.Hit {
	defer tr.Span("merge")()
	merged := mergeRanked(per, limit)
	hits := make([]semindex.Hit, len(merged))
	for i, h := range merged {
		hits[i] = semindex.NewHit(e, h.gid, h.score)
	}
	return hits
}

// Doc returns the stored document for a global docID (see
// index.Index.Doc), or nil for an unknown, tombstoned or lost ID
// (quarantined shards and merged-away tombstones leave holes in the ID
// space rather than renumbering) and for every ID once the engine is
// closed. It is how an engine hit reads its document: the ID is resolved
// when the hit is read, against the engine's state then.
func (e *Engine) Doc(gid int) *index.Document {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if ix, local := e.docLocked(gid); ix != nil {
		return ix.Doc(local)
	}
	return nil
}

// Meta returns one stored field of a global docID's document as a hit
// reads it (see index.Index.Meta): "" where Doc returns nil.
func (e *Engine) Meta(gid int, name string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if ix, local := e.docLocked(gid); ix != nil {
		return ix.Meta(local, name)
	}
	return ""
}

// EachMeta calls fn with Meta(gid, name) of each of gids in order,
// all read under one read lock: semindex.Facets counts an answer's values
// this way, in one engine state, and a writer queued behind the lock waits
// for the whole pass rather than stalling it once per document. fn runs
// under the lock, so it must not write to the engine.
func (e *Engine) EachMeta(gids []int, name string, fn func(value string)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, gid := range gids {
		v := ""
		if ix, local := e.docLocked(gid); ix != nil {
			v = ix.Meta(local, name)
		}
		fn(v)
	}
}

// docLocked resolves a global docID to the sub-index holding it live and
// its local docID there; a nil index when there is none. Read lock
// required.
func (e *Engine) docLocked(gid int) (*index.Index, int) {
	if e.closed || gid < 0 || gid >= len(e.byGID) {
		return nil, 0
	}
	ref := e.byGID[gid]
	if ref.sub == nil || ref.sub.ix.IsDeleted(ref.local) {
		return nil, 0
	}
	return ref.sub.ix, ref.local
}

// Related returns documents similar to the given global docID, mirroring
// semindex.Related: the more-like-this query is built on the owning
// sub-index (its term selection reads the corpus-wide statistics),
// scattered to every shard, and the source document is filtered from the
// merge. A tombstoned or lost source returns nil.
func (e *Engine) Related(gid int, limit int) []semindex.Hit {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ix, local := e.docLocked(gid)
	if ix == nil {
		// The source document was lost with a quarantined shard or
		// replaced by a newer version of its page.
		return nil
	}
	q := ix.LikeThisQuery(local, semindex.QueryBoosts, 8, e.global)
	if q == nil {
		return nil
	}
	// Over-fetch by one per shard so dropping the source cannot starve
	// the global top-k.
	fetch := limit
	if fetch > 0 {
		fetch++
	}
	merged := e.merge(nil, e.searchQueryLocked(q, fetch), 0)
	out := merged[:0]
	for _, h := range merged {
		if h.DocID != gid {
			out = append(out, h)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Suggest proposes a corrected query exactly like semindex.Suggest, but
// against the corpus-wide vocabulary: a token that exists only on another
// shard is not flagged as a typo, and the replacement is the globally
// most frequent near-miss, independent of shard layout. The correction
// logic itself is semindex.CorrectQuery — one implementation for both the
// monolith and the engine, fed here from the exchanged statistics.
func (e *Engine) Suggest(query string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	boosts := semindex.QueryBoosts
	if e.level == semindex.Trad {
		boosts = semindex.TradBoosts
	}
	return semindex.CorrectQuery(e.base[0].ix.Analyzer(), boosts, query,
		e.global.DocFreq, e.neighboursLocked)
}

// neighboursLocked is index.Index.Neighbours over the whole engine: the
// union of every shard's base and segments, ascending. A term that only
// tombstoned documents hold is among them; its corpus-wide df of 0 keeps
// CorrectQuery from choosing it. Read lock required.
func (e *Engine) neighboursLocked(field, term string) []string {
	var out []string
	for s := range e.base {
		for _, sub := range e.subsLocked(s) {
			out = append(out, sub.ix.Neighbours(field, term)...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
