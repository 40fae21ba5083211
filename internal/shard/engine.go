// Package shard is the horizontally-partitioned index engine behind the
// paper's claim that semantic indexing "scales our system up to web search
// engines" (Sections 3.6, 7). Match pages are partitioned across N shards
// by a stable hash of the page ID; each shard holds an ordinary
// index.Index over its slice of the corpus and is built concurrently.
// Queries fan out to every shard and the per-shard top-k lists are merged
// into a global top-k.
//
// The engine guarantees the merged ranking is *identical* — documents and
// scores — to the ranking a single monolithic index over the same corpus
// would produce. Two mechanisms carry that guarantee:
//
//   - Globally-consistent scoring: shards score against corpus-wide
//     document frequencies, document counts and average field lengths
//     (index.CorpusStats) instead of their local slice, so identical
//     documents earn bit-identical scores regardless of shard placement.
//     The view is built once at build/load time and maintained
//     incrementally by ingest: integer adds (new segment) and subtracts
//     (tombstones) land on exactly the state a from-scratch recompute
//     over the live documents would produce.
//
//   - Global document identity: every sub-index maps its local docIDs to
//     global ones (the docIDs the monolith would have assigned), and a
//     snapshot stores each shard file's list beside its payload. Ties are
//     broken on the global ID, and because local IDs within every
//     sub-index are assigned in global order, per-shard top-k truncation
//     never discards a document the global merge would have kept.
//
// Ingest is LSM-shaped: each Ingest batch becomes one small immutable
// in-memory segment per touched shard, appended to the shard without
// rebuilding anything; a replaced page's previous documents are
// tombstoned, not rewritten. Searches scatter across shards × (base +
// segments). A commit that leaves a shard it touched at mergeSegments
// segments starts a compaction pass (merger.go), which folds the
// segments into the base and drops tombstones — invisible to queries: no
// statistics move, no epoch bumps, the ranking is byte-identical before,
// during and after.
package shard

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/semindex"
	"repro/internal/wal"
)

// MetaGID named the stored field that carried a document's global docID.
// No document carries it now (see subIndex.gids); like
// LoadReport.MappedFallback, it is kept only because the repository
// benchmark (benchmark/layers.go) names it.
const MetaGID = "_gid"

// tocColumns are the stored fields every shard file's TOC captures, so a
// mapped load rebuilds its page map and a facet count reads event kinds
// without inflating a stored document.
var tocColumns = []string{semindex.MetaMatchID, semindex.MetaKind}

// subIndex is one searchable unit inside a shard: the base index or one
// ingest batch's immutable segment. gids maps its local docIDs to global
// ones, ascending — locals are assigned in global order, which keeps
// per-sub top-k truncation safe for the global merge. It is the one record
// of the global IDs; a snapshot file stores it beside its payload.
type subIndex struct {
	ix   *index.Index
	gids []int
	// release unmaps a mapped base's byte region (nil for heap subs).
	// Called only after the sub can no longer be referenced: base swaps
	// happen under the write lock, and every search holds the read lock
	// for its full duration (the deadline scatter's drain goroutine keeps
	// holding it until stragglers finish), so no reader survives the swap.
	release func() error
}

// docRef locates one global document inside the engine. A nil sub marks
// a hole in the global ID space (a document lost with a quarantined
// shard, or dropped by a merge after being tombstoned).
type docRef struct {
	sub   *subIndex
	local int
}

// Options configures a sharded build.
type Options struct {
	// Shards is the partition count N (values < 1 mean 1).
	Shards int
	// Parallelism bounds the page-preparation worker pool; 0 means
	// GOMAXPROCS. Shard commits always run with one worker per shard.
	Parallelism int
	// ChunkPages bounds how many pages BuildStream materializes at a
	// time (0 means 512). Peak build working memory beyond the index
	// itself is two chunks — one chunk's pages and documents being
	// prepared while the previous chunk's documents commit — independent
	// of corpus size.
	ChunkPages int
}

// Engine is an N-way sharded semantic index. Searches are safe for
// concurrent use and may overlap; ingestion (Ingest) commits are
// serialized against searches internally. An upsert's document analysis
// runs outside the lock, and the statistics its tombstones remove are
// summed under the read lock beside searches; only the WAL append and the
// commit hold the write lock.
type Engine struct {
	level   semindex.Level
	builder *semindex.Builder

	// mu guards the mutable state below: ingest and merge swaps take the
	// write side while concurrent searches hold the read side.
	mu sync.RWMutex
	// base and segs are each shard's LSM pieces: one base index plus the
	// not-yet-merged segments in creation (= ascending global ID) order.
	base []*subIndex
	segs [][]*subIndex
	// byGID maps global docID -> location.
	byGID []docRef
	// pageGIDs maps a page ID to the global docIDs of its LIVE documents
	// — the index Ingest consults to tombstone a page's previous version
	// (upsert semantics).
	pageGIDs map[string][]int
	// liveDocs counts documents that match queries: ingested minus
	// tombstoned minus quarantined holes.
	liveDocs int
	// global is the corpus-wide statistics view every search binds into
	// its query; no sub-index holds it. The OBJECT IDENTITY is engine-wide
	// and stable across ingests — ingest mutates it in place under the
	// write lock (integer-exact, see package comment); only exchangeStats
	// replaces it.
	global *index.CorpusStats

	// met holds the engine's metric handles (see metrics.go). Swapped by
	// SetMetrics under the write lock; read under the read lock on every
	// search path.
	met *engineMetrics

	// epoch (guarded by mu) counts content changes: a commit that adds or
	// tombstones a document, or a statistics exchange, bumps it. Every
	// cached answer carries the epoch its scatter read, so one bump evicts
	// them all (see Search).
	epoch uint64
	// exhaustive is SetExhaustiveScoring's choice: every scatter reads it
	// under the read lock and ranks each sub-index through the exhaustive
	// path when it is set.
	exhaustive bool
	// nextSeg numbers ingest segments, starting at 1 (0 is the base).
	nextSeg uint64

	// cache and flight are the optional query-result cache and its
	// singleflight group (see internal/qcache). Installed before serving
	// traffic by EnableCache and swapped only under the write lock; nil
	// means every query runs cold.
	cache  *qcache.Cache
	flight *qcache.Group

	// stall, when set, runs at the start of every shard search with the
	// shard index, on whichever goroutine searches the shard — the
	// fault-injection hook degraded serving is tested through. Install
	// before serving traffic.
	stall func(shard int)
	// slice is how many live documents pay for one goroutine of a
	// scatter: sliceDocs, lowered only by tests to force helpers onto a
	// small engine. Set like stall.
	slice int
	// beforeCommit, when set, runs in Ingest between the prepare and the
	// write lock, on the ingesting goroutine, with the batch's page leases
	// held: the hook a test merges beside a prepared batch through. Set
	// like stall.
	beforeCommit func()
	// failAppend (guarded by mu), when positive, counts down the WAL
	// appends left until walAppend fails one instead of writing it: the
	// seam a test fails a mid-batch append through. Set like stall.
	failAppend int
	// leases are the page leases an upsert holds from its removal sum to
	// the end of its commit, one slot per page-ID hash (see lease).
	leases [leaseSlots]sync.Mutex

	// gen is the snapshot generation the engine's state extends: 0 for
	// a fresh build, the manifest's generation after Load, bumped by
	// every Save. It anchors the ingest WAL to its snapshot.
	gen uint64
	// wal, when attached, receives every Ingest batch before memory
	// mutates (see AttachWAL); Save rotates it at checkpoint.
	wal *wal.Log
	// quarantined lists shard slots Load replaced with empty
	// placeholders after their snapshot files failed verification. A
	// non-empty list means the engine serves degraded: every
	// SearchReport names these shards as missing.
	quarantined []int
	// loadRep records how the last Load recovered (zero for built
	// engines).
	loadRep LoadReport
	// closed is set by Close: from then on no hit reads a document
	// (Doc, Meta), Search, Save and Ingest refuse (errClosed) and a
	// compaction pass does nothing, since a mapped base's region is
	// unmapped.
	closed bool

	// mappedBase, when non-empty, is the snapshot base path the engine
	// was mapped-loaded from (LoadOptions.Mapped): every new base is
	// mapped from a file, a compaction's (mapMerged) from one that lives
	// next to this path only until it is mapped. Set once before serving,
	// read-only after.
	mappedBase string

	// mergeOpMu serializes compaction passes (the one a commit starts,
	// ForceMerge, Save's checkpoint) against each other and against
	// Close's unmap. A pass holds it once for all its shards, whose merges
	// run concurrently, up to GOMAXPROCS at a time, and install in shard
	// order (see merger.go). Lock order: mergeOpMu, then mu.
	mergeOpMu sync.Mutex
	// compactPending is set while a pass a commit started (compactDue)
	// waits for mergeOpMu, and cleared by that pass once it holds it.
	compactPending atomic.Bool
}

// newEngine wires the empty N-shard skeleton shared by Build and Load.
func newEngine(level semindex.Level, b *semindex.Builder, n int) *Engine {
	return &Engine{
		level:    level,
		builder:  b,
		base:     make([]*subIndex, n),
		segs:     make([][]*subIndex, n),
		pageGIDs: map[string][]int{},
		nextSeg:  1,
		met:      newEngineMetrics(obs.Default, n),
		slice:    sliceDocs,
	}
}

// Generation returns the snapshot generation the engine extends: 0 for
// a fresh build, advanced by every Save.
func (e *Engine) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// Quarantined lists the shard slots serving as empty placeholders for
// snapshot files Load rejected. Empty means the engine is complete;
// non-empty means degraded serving (surfaced in every SearchReport and
// socserve's /readyz).
func (e *Engine) Quarantined() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]int(nil), e.quarantined...)
}

// LoadReport describes the recovery that produced this engine: its
// generation, quarantined shards, and the WAL tail replayed. The zero
// report means the engine was built, not loaded.
func (e *Engine) LoadReport() LoadReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.loadRep
}

// SetStall installs a per-shard delay hook called at the start of every
// shard search, on the goroutine that searches the shard. It exists for
// fault injection: tests (and drills) stall one shard past a Search
// deadline and assert the engine degrades instead of hanging. Pass nil to
// remove. Not for production use.
func (e *Engine) SetStall(hook func(shard int)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stall = hook
}

// shardFor places a page on a shard by stable hash, so the same page ID
// always lands on the same shard regardless of arrival order.
func shardFor(pageID string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(pageID))
	return int(h.Sum32() % uint32(n))
}

// Build constructs the engine over a fully-materialized page slice. It
// is BuildStream over a slice source — one code path whether the corpus
// arrives as a slice or as a stream. A nil builder gets the default
// soccer pipeline.
func Build(b *semindex.Builder, level semindex.Level, pages []*crawler.MatchPage, opts Options) *Engine {
	e, err := BuildStream(b, level, &sliceSource{pages: pages}, opts)
	if err != nil {
		// A slice source cannot fail; an error here is a programming error.
		panic("shard: slice build failed: " + err.Error())
	}
	return e
}

// PageSource streams match pages into a build. NextPage returns io.EOF
// when the stream is exhausted; any other error aborts the build.
// internal/corpus.Generator implements it, as does any parser pulling
// pages off disk or the network.
type PageSource interface {
	NextPage() (*crawler.MatchPage, error)
}

// sliceSource adapts a materialized page slice to PageSource.
type sliceSource struct {
	pages []*crawler.MatchPage
	i     int
}

func (s *sliceSource) NextPage() (*crawler.MatchPage, error) {
	if s.i >= len(s.pages) {
		return nil, io.EOF
	}
	p := s.pages[s.i]
	s.i++
	return p, nil
}

// BuildStream constructs the engine from a streaming page source in
// bounded chunks: up to Options.ChunkPages pages are pulled, their
// documents prepared on a worker pool (extraction, population,
// inference — the expensive, embarrassingly-parallel part), global
// docIDs assigned in arrival order (the order the monolith would use),
// and each shard's slice committed concurrently. The commits run in the
// background while the next chunk is pulled and prepared, so preparation
// and indexing overlap; at most one chunk's commits are in flight. Build
// working memory beyond the index itself is therefore two chunks,
// independent of corpus size — the property that lets a million-document
// synthetic corpus (internal/corpus) build without ever materializing
// the corpus. Every return, the source-error one included, waits for the
// in-flight commits first. Once the last commit is done each shard's base
// is sealed (index.Index.Seal), the shards side by side.
//
// The produced engine is identical — document identity, statistics,
// ranking — to Build over the same pages in the same order, because
// chunking and pipelining change when documents are prepared but not the
// order global docIDs are assigned or the order each shard commits.
func BuildStream(b *semindex.Builder, level semindex.Level, src PageSource, opts Options) (*Engine, error) {
	buildStart := time.Now()
	if b == nil {
		b = semindex.NewBuilder()
	}
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	e := newEngine(level, b, n)
	for s := 0; s < n; s++ {
		e.base[s] = &subIndex{ix: index.New(b.Analyzer)}
	}

	chunk := opts.ChunkPages
	if chunk <= 0 {
		chunk = 512
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// commits tracks the previous chunk's shard commits; the deferred
	// Wait covers every return path, so no commit outlives the build.
	var commits sync.WaitGroup
	defer commits.Wait()
	buf := make([]*crawler.MatchPage, 0, chunk)
	for {
		page, err := src.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		buf = append(buf, page)
		if len(buf) == chunk {
			e.commitChunk(&commits, buf, workers)
			buf = buf[:0]
		}
	}
	e.commitChunk(&commits, buf, workers)
	commits.Wait()

	// Each shard's base drops the room its appends left, before any search
	// can see it.
	fanOut(n, n, func(s int) { e.base[s].ix.Seal() })
	e.liveDocs = len(e.byGID)
	e.exchangeStats()
	e.met.build.ObserveDuration(time.Since(buildStart))
	return e, nil
}

// commitChunk runs the three build phases over one chunk of pages and
// returns with the chunk's shard commits still running under commits.
// Phases 1 and 2 overlap the previous chunk's commits; phase 3 waits for
// them before launching this chunk's, so every shard receives its
// documents in global order. The commits read only the prepared
// documents, never pages, so the caller may refill pages at once. Only
// called before the engine serves traffic, so no locking.
func (e *Engine) commitChunk(commits *sync.WaitGroup, pages []*crawler.MatchPage, workers int) {
	if len(pages) == 0 {
		return
	}
	n := len(e.base)

	// Phase 1: prepare per-page documents in parallel.
	docsByPage := e.prepareDocs(pages, workers)

	// Phase 2: assign global docIDs in page order. Local commit order per
	// shard follows global order, so the shard/local mapping is known here.
	pagesByShard := make([][]int, n)
	for i, page := range pages {
		s := shardFor(page.ID, n)
		pagesByShard[s] = append(pagesByShard[s], i)
		// A parsed page's ID is a view of its whole HTML
		// (crawler.ParseMatchPage), and assigning to a string key stores
		// the key given: the key is a clone, so the map pins no page.
		key := strings.Clone(page.ID)
		for range docsByPage[i] {
			gid := len(e.byGID)
			e.byGID = append(e.byGID, docRef{sub: e.base[s], local: len(e.base[s].gids)})
			e.base[s].gids = append(e.base[s].gids, gid)
			e.pageGIDs[key] = append(e.pageGIDs[key], gid)
		}
	}

	// Phase 3: once the previous chunk's commits are done, commit every
	// shard concurrently in the background.
	commits.Wait()
	for s := 0; s < n; s++ {
		commits.Add(1)
		go func(s int) {
			defer commits.Done()
			ix := e.base[s].ix
			for _, pi := range pagesByShard[s] {
				for _, d := range docsByPage[pi] {
					ix.Add(d)
				}
			}
		}(s)
	}
}

// EnableCache installs (maxBytes > 0) or removes (maxBytes <= 0) the
// query-result cache and its singleflight group, registering cache
// metrics in r (nil r disables cache instrumentation). Call before the
// engine serves traffic; a swap mid-flight is safe but in-flight queries
// finish against the cache they started with.
func (e *Engine) EnableCache(maxBytes int64, r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if maxBytes <= 0 {
		e.cache, e.flight = nil, nil
		return
	}
	e.cache = qcache.New(maxBytes, 0, r)
	e.flight = qcache.NewGroup(r)
}

// subsLocked lists one shard's sub-indexes: base first, then segments in
// creation order — ascending, disjoint global-ID ranges. Read lock
// required; the returned slice is private to the caller.
func (e *Engine) subsLocked(s int) []*subIndex {
	subs := make([]*subIndex, 0, 1+len(e.segs[s]))
	subs = append(subs, e.base[s])
	return append(subs, e.segs[s]...)
}

// exchangeStats recomputes every shard's local statistics in parallel
// (fanOut) and merges them into a FRESH corpus-wide view, which every
// search then binds into its query — the post-build/post-load exchange
// that makes per-shard ranking globally consistent. LocalStats is tombstone-aware,
// so the result is exact even mid-LSM-state. Callers must hold the write
// lock (or be single-threaded, as during Build). The epoch advances: the
// statistics object was replaced, so every cached answer is evicted.
func (e *Engine) exchangeStats() {
	per := make([]*index.CorpusStats, len(e.base))
	fanOut(len(e.base), len(e.base), func(s int) {
		cs := e.base[s].ix.LocalStats()
		for _, sub := range e.segs[s] {
			cs.Merge(sub.ix.LocalStats())
		}
		per[s] = cs
	})
	g := index.NewCorpusStats()
	for _, cs := range per {
		g.Merge(cs)
	}
	e.global = g
	e.epoch++
}

// SetExhaustiveScoring routes every search and Related through the
// term-at-a-time map-accumulator scoring path instead of the pruned DAAT
// kernel (see index.Index.ExhaustiveSearch) — the engine-level escape
// hatch the cold-path benchmark compares against. Results are identical
// either way; only the evaluation strategy changes. Takes the write lock:
// do not flip it while queries are in flight you care about timing.
func (e *Engine) SetExhaustiveScoring(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.exhaustive = on
}

// Level returns the semantic level all shards are built at.
func (e *Engine) Level() semindex.Level { return e.level }

// NumShards returns the partition count.
func (e *Engine) NumShards() int { return len(e.base) }

// NumDocs returns the number of live documents — ingested (including
// not-yet-merged segment documents, which are searchable the moment
// Ingest returns) minus tombstoned minus quarantined holes.
func (e *Engine) NumDocs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.liveDocs
}

// Shard returns a view of one shard's BASE index at the engine's level
// (for stats, persistence and tests); the index must not be mutated.
// Segment documents live outside it until a compaction folds them in.
// The view's Search ranks with the engine's live corpus-wide statistics,
// always through the pruned kernel whatever SetExhaustiveScoring says.
// Ingest changes those statistics in place, so the view must not be
// searched beside an Ingest.
func (e *Engine) Shard(i int) *semindex.SemanticIndex {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &semindex.SemanticIndex{Level: e.level, Index: e.base[i].ix, Stats: e.global}
}

// Stats summarizes the engine: the exchanged corpus-wide view plus each
// shard's size.
type Stats struct {
	// Shards is the partition count.
	Shards int
	// Docs is the live global document count, segment docs included.
	Docs int
	// Segments counts not-yet-merged ingest segments across all shards.
	Segments int
	// Tombstones counts deleted documents awaiting a merge.
	Tombstones int
	// Global is the merged corpus-wide statistics every shard scores with.
	Global *index.CorpusStats
	// PerShard holds each shard's size summary, base and segments
	// aggregated (Fields is the base's; segment fields are a subset).
	PerShard []index.Stats
}

// Stats reports the engine's shape after the statistics exchange.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{Shards: len(e.base), Docs: e.liveDocs, Global: e.global}
	for s := range e.base {
		ps := e.base[s].ix.Stats()
		for _, sub := range e.segs[s] {
			ss := sub.ix.Stats()
			ps.Docs += ss.Docs
			ps.Deleted += ss.Deleted
			ps.Terms += ss.Terms
			ps.Postings += ss.Postings
		}
		ps.Docs -= ps.Deleted
		st.Segments += len(e.segs[s])
		st.Tombstones += ps.Deleted
		st.PerShard = append(st.PerShard, ps)
	}
	return st
}

// String renders a one-line summary for CLIs.
func (st Stats) String() string {
	out := fmt.Sprintf("%d shards, %d docs (", st.Shards, st.Docs)
	for i, ps := range st.PerShard {
		if i > 0 {
			out += "+"
		}
		out += strconv.Itoa(ps.Docs)
	}
	out += ")"
	if st.Segments > 0 || st.Tombstones > 0 {
		out += fmt.Sprintf(", %d unmerged segment(s), %d tombstone(s)", st.Segments, st.Tombstones)
	}
	return out
}
