package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/wal"
)

// workload is one entry of BENCHMARK.json's workloads (its "why" is there
// and in README.md). run does one pass:
// set-up, the measured windows, the shared reduction (harness.finish), the
// live-heap reading and the correctness gate.
type workload struct {
	name string
	op   string // what op_p50_ms / op_p95_ms / ops_per_s time on this workload
	run  func(h *harness) error
}

var workloads = []workload{
	{"query_cold", "Engine.Search(NoCache) on a heap engine; ops_per_s counts searches", runQueryCold},
	{"mapped_serve", "steady-pass Engine.Search(NoCache) on a freshly opened mapped engine; ops_per_s counts searches", runMappedServe},
	{"ingest_mix", "Engine.Ingest of one page (WAL attached, async ack); ops_per_s counts documents committed per second of Ingest plus ForceMerge", runIngestMix},
	{"bulk_build", "one BuildStream chunk commit; ops_per_s counts documents built per second of BuildStream", runBulkBuild},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var coldOpts = shard.SearchOptions{Limit: searchLimit, NoCache: true}

// refEvery is the operation stride that spreads k reference samples over n
// operations.
func refEvery(n, k int) int { return max(n/k, 1) }

func runQueryCold(h *harness) error {
	var eng *shard.Engine
	var pool []loadgen.Query
	var narrations int
	err := h.setup(func(c *setupClock) error {
		eng = nil
		pages, g, err := basePages(h.sz.CorpusDocs, h.cfg.seed, h.pageTook)
		if err != nil {
			return err
		}
		narrations = countNarrations(pages)
		pool = queryPool(g, h.sz.PoolQueries)
		eng, err = buildEngine(pages, c)
		return err
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	step := refEvery(h.sz.QueryOps, 12)
	for w := h.windows(h.sz.QueryWindowMs); w > 0; w-- {
		h.rec.begin()
		ws := h.tr.begin("window", 0, 0)
		for i := 0; i < h.sz.QueryOps; i++ {
			if i%step == 0 {
				h.rec.sampleRef()
			}
			h.search(eng, pool[h.rng.Intn(len(pool))], coldOpts, "search", ws)
		}
		h.tr.end(ws)
	}

	h.finish("search", func(raw bool) float64 {
		return h.rec.rate(func(int) float64 { return float64(h.sz.QueryOps) }, raw, "search")
	})
	h.searchLayers("search")
	h.heapLive(eng)
	h.gate(eng, pool, narrations, -1)
	if h.tr != nil {
		if err := h.socserveEnvelope(eng, pool); err != nil {
			return fmt.Errorf("socserve envelope: %w", err)
		}
	}
	return nil
}

// searchLayers reduces the kernel replays of a traced pass; series holds
// the Engine.Search timings the replays belong to.
func (h *harness) searchLayers(series string) {
	if h.tr == nil {
		return
	}
	h.layer["shard.search_p50_ms"] = h.rec.value(series, pct(50), false)
	h.layer["shard.search_self_p50_ms"] = h.rec.value("search.self", pct(50), false)
	h.layer["index.shard_search_slowest_p50_ms"] = h.rec.value("kernel.slowest", pct(50), false)
	h.layer["index.shard_search_p50_ms"] = h.rec.value("kernel", pct(50), false)
	h.layer["index.shard_search_p95_ms"] = h.rec.value("kernel", pct(95), false)
	for c := range queryMix {
		h.layer["index.shard_search_p50_ms."+string(c)] = h.rec.value("kernel."+string(c), pct(50), false)
	}
}

func runMappedServe(h *harness) error {
	base := filepath.Join(h.tmp, "idx.bin")
	var heapEng *shard.Engine // kept on traced passes for the codec probes
	var pool []loadgen.Query
	var narrations int
	err := h.setup(func(c *setupClock) error {
		pages, g, err := basePages(h.sz.CorpusDocs, h.cfg.seed, h.pageTook)
		if err != nil {
			return err
		}
		narrations = countNarrations(pages)
		pool = queryPool(g, h.sz.PoolQueries)
		eng, err := buildEngine(pages, c)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := eng.Save(base); err != nil {
			return err
		}
		h.layerAdd("shard.save_ms", ms(time.Since(start)))
		heapEng = eng
		return nil
	})
	if err != nil {
		return err
	}
	h.layerMean("shard.save_ms")
	var snapBytes int64
	for _, f := range shard.Fsck(base).Files {
		snapBytes += f.Size
	}
	h.counters["snapshot_bytes"] = snapBytes
	h.layer["shard.snapshot_bytes_per_doc"] = float64(snapBytes) / float64(heapEng.NumDocs())
	if h.tr != nil {
		if err := h.codecLayers(heapEng, base); err != nil {
			return err
		}
	}
	heapEng = nil

	open := func(parent int) (*shard.Engine, error) {
		id := h.tr.begin("shard.LoadWith(Mapped)", parent, 0)
		start := time.Now()
		eng, err := shard.LoadWith(base, nil, shard.LoadOptions{Mapped: true})
		d := time.Since(start)
		h.tr.end(id)
		h.attempted++
		if err != nil {
			h.failed++
			return nil, err
		}
		if fb := eng.LoadReport().MappedFallback; len(fb) > 0 {
			h.failed++
			eng.Close()
			return nil, fmt.Errorf("mapped open fell back to heap on shards %v", fb)
		}
		h.rec.observe("open", d)
		return eng, nil
	}
	// The first pass touches a fixed, evenly spread subset of the pool once,
	// in seeded order: lazy block decode and stored-chunk inflate happen
	// there, so the steady pass, drawn from the same subset, measures the
	// mapped read path at rest. The subset is the same in every window and
	// for every seed, because the median over so few queries moves by tens of
	// percent from one subset to the next.
	subset := evenly(len(pool), h.sz.MappedFirst)
	firstStep, steadyStep := refEvery(h.sz.MappedFirst, 4), refEvery(h.sz.MappedSteady, 8)
	firstPass := func(eng *shard.Engine, parent int) {
		for i, o := range h.rng.Perm(len(subset)) {
			if i%firstStep == 0 {
				h.rec.sampleRef()
			}
			h.search(eng, pool[subset[o]], coldOpts, "first", parent)
		}
	}

	for w := h.windows(h.sz.MappedWindowMs); w > 0; w-- {
		h.rec.begin()
		ws := h.tr.begin("window", 0, 0)
		h.rec.sampleRef()
		eng, err := open(ws)
		if err != nil {
			return err
		}
		firstPass(eng, ws)
		for i := 0; i < h.sz.MappedSteady; i++ {
			if i%steadyStep == 0 {
				h.rec.sampleRef()
			}
			h.search(eng, pool[subset[h.rng.Intn(len(subset))]], coldOpts, "steady", ws)
		}
		if err := eng.Close(); err != nil {
			return err
		}
		h.tr.end(ws)
	}

	h.finish("steady", func(raw bool) float64 {
		return h.rec.rate(func(int) float64 { return float64(h.sz.MappedSteady) }, raw, "steady")
	})
	h.layer["shard.load_mapped_p50_ms"] = h.rec.value("open", pct(50), false)
	h.layer["shard.first_touch_p50_ms"] = h.rec.value("first", pct(50), false)
	h.searchLayers("steady")

	h.rec.begin() // every metric is reduced by now; the heap reading's open and first pass go to a window nobody reads
	eng, err := open(0)
	if err != nil {
		return err
	}
	defer eng.Close()
	firstPass(eng, 0)
	h.heapLive(eng)
	h.gate(eng, pool, narrations, -1)
	return nil
}

func runIngestMix(h *harness) error {
	base := filepath.Join(h.tmp, "idx.bin")
	windows := h.windows(h.sz.IngestWindowMs)
	ingests := windows * h.sz.IngestPerWindow
	freshNeeded := (ingests + h.sz.UpsertsPerFresh) / (h.sz.UpsertsPerFresh + 1)

	var eng *shard.Engine
	var reg *obs.Registry // the cache's and the WAL's counters
	var pool []loadgen.Query
	var hot, fresh []*crawler.MatchPage
	var narrations int
	err := h.setup(func(c *setupClock) error {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return err
			}
			eng = nil
		}
		pages, g, err := genPages(corpus.Spec{TargetDocs: h.sz.CorpusDocs, Seed: corpusSeed}, 0, h.pageTook)
		if err != nil {
			return err
		}
		narrations = countNarrations(pages)
		pool = queryPool(g, h.sz.PoolQueries)
		hot = hot[:0] // the same pages for every seed; the seed picks which one each upsert rewrites
		for _, i := range evenly(len(pages), h.sz.HotPages) {
			hot = append(hot, pages[i])
		}
		shufflePages(pages, h.cfg.seed)
		fresh, _, err = genPages(corpus.Spec{TargetDocs: 1 << 30, Seed: freshSeed, NoCoverage: true}, freshNeeded, h.pageTook)
		if err != nil {
			return err
		}
		for _, p := range fresh {
			p.ID = "fresh-" + p.ID
		}
		if eng, err = buildEngine(pages, c); err != nil {
			return err
		}
		reg = obs.NewRegistry()
		eng.EnableCache(cacheBytes, reg)
		return eng.AttachWAL(base, wal.Options{Policy: wal.SyncNever, Registry: reg})
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	var builder *semindex.Builder // replays PageDocuments on traced passes
	if h.tr != nil {
		builder = semindex.NewBuilder()
	}
	zipf := rand.NewZipf(h.rng, 1.2, 1, uint64(len(pool)-1))
	cacheOpts := shard.SearchOptions{Limit: searchLimit}
	ingestOpts := shard.IngestOptions{Merge: shard.MergeNone, Durability: shard.DurAsync}
	docsIn := make([]float64, windows)
	searches := make([]float64, windows)
	var tombstones, segments, hits, misses, docsIngested int
	ledger := eng.NumDocs()
	for w := 0; w < windows; w++ {
		h.rec.begin()
		ws := h.tr.begin("window", 0, 0)
		for k := 0; k < h.sz.IngestPerWindow; k++ {
			h.rec.sampleRef()
			var page *crawler.MatchPage
			if n := w*h.sz.IngestPerWindow + k; n%(h.sz.UpsertsPerFresh+1) == 0 {
				page = fresh[n/(h.sz.UpsertsPerFresh+1)]
				narrations += len(page.Narrations)
			} else {
				page = hot[h.rng.Intn(len(hot))]
			}
			h.req++
			h.hashOp("I", page.ID)
			req := h.tr.begin("request", ws, h.req)
			id := h.tr.begin("shard.Engine.Ingest", req, h.req)
			start := time.Now()
			res, err := eng.Ingest(h.ctx, []*crawler.MatchPage{page}, ingestOpts)
			d := time.Since(start)
			h.tr.end(id)
			h.attempted++
			if err != nil || res.Docs < len(page.Narrations) {
				h.failed++
			}
			h.rec.observe("ingest", d)
			docsIn[w] += float64(res.Docs)
			docsIngested += res.Docs
			tombstones += res.Tombstones
			ledger += res.Docs - res.Tombstones
			if h.tr != nil {
				id := h.tr.begin("semindex.Builder.PageDocuments", req, h.req)
				start := time.Now()
				n := len(builder.PageDocuments(semindex.FullInf, page))
				dp := time.Since(start)
				h.tr.end(id)
				h.rec.observe("pagedocs", dp)
				h.layerAdd("semindex.docs_per_page", float64(n))
				if commit := d - dp; commit > 0 {
					h.rec.observe("ingest.commit", commit)
				}
			}
			h.tr.end(req)
			h.rec.sampleRef()
			for j := 0; j < h.sz.SearchesPerIngest; j++ {
				res := h.search(eng, pool[zipf.Uint64()], cacheOpts, "", ws)
				searches[w]++
				if res.Cache == shard.CacheHit {
					hits++
				} else {
					misses++
				}
			}
		}
		st := eng.Stats()
		segments += st.Segments
		h.layerAdd("shard.tombstones", float64(st.Tombstones))
		if h.tr != nil && w == windows-1 {
			if err := h.mergeLayer(eng, builder, hot[0]); err != nil {
				return err
			}
		}
		h.rec.sampleRef()
		id := h.tr.begin("shard.Engine.ForceMerge", ws, 0)
		start := time.Now()
		eng.ForceMerge()
		h.rec.observe("merge", time.Since(start))
		h.tr.end(id)
		h.tr.end(ws)
	}

	h.finish("ingest", func(raw bool) float64 {
		return h.rec.rate(func(w int) float64 { return docsIn[w] }, raw, "ingest", "merge")
	})
	h.counters["tombstones"] = int64(tombstones)
	h.counters["cache_hits"] = int64(hits)
	h.counters["cache_misses"] = int64(misses)
	h.layerMean("shard.tombstones")
	h.layerMean("semindex.docs_per_page")
	h.layer["shard.segments_at_merge"] = float64(segments) / float64(windows)
	h.layer["shard.force_merge_p50_ms"] = h.rec.value("merge", pct(50), false)
	h.layer["shard.mixed_search_per_s"] = h.rec.rate(func(w int) float64 { return searches[w] }, false, "search.hit", "search.miss")
	h.layer["qcache.hit_share"] = float64(hits) / float64(hits+misses)
	h.layer["qcache.invalidations"] = float64(reg.Counter(qcache.MetricInvalidations).Value())
	h.layer["qcache.hit_p50_us"] = 1e3 * h.rec.value("search.hit", pct(50), false)
	h.layer["qcache.miss_p50_ms"] = h.rec.value("search.miss", pct(50), false)
	if fi, err := os.Stat(shard.WALPath(base)); err == nil && docsIngested > 0 {
		h.counters["wal_bytes"] = fi.Size()
		h.layer["wal.bytes_per_doc"] = float64(fi.Size()) / float64(docsIngested)
	}
	if h.tr != nil {
		h.layer["semindex.page_documents_ms"] = h.rec.value("pagedocs", pct(50), false)
		h.layer["shard.ingest_commit_p50_ms"] = h.rec.value("ingest.commit", pct(50), false)
		h.searchLayers("search.miss")
		if err := h.cacheAndWALLayers(hot[0]); err != nil {
			return err
		}
	}
	h.heapLive(eng)
	h.gate(eng, pool, narrations, ledger)
	return nil
}

func runBulkBuild(h *harness) error {
	const chunksPerWindow = 4
	windows := h.windows(h.sz.BuildChunkMs * chunksPerWindow)
	perWindow := h.sz.BuildChunkPages * chunksPerWindow
	var pages []*crawler.MatchPage
	var pool []loadgen.Query
	err := h.setup(func(c *setupClock) error {
		generated := 0
		var g *corpus.Generator
		var err error
		pages, g, err = genPages(corpus.Spec{TargetDocs: 1 << 30, Seed: corpusSeed}, windows*perWindow, func(d time.Duration) {
			h.pageTook(d)
			if generated++; generated%perWindow == 0 {
				c.refPoint()
			}
		})
		if err != nil {
			return err
		}
		shufflePages(pages, h.cfg.seed)
		pool = queryPool(g, h.sz.PoolQueries)
		return nil
	})
	if err != nil {
		return err
	}
	if len(pages) != windows*perWindow {
		return errors.New("generator ran dry")
	}
	narrations := countNarrations(pages)
	for _, p := range pages {
		h.hashOp("B", p.ID)
	}

	var builder *semindex.Builder
	var probe *index.Index // index.Add replay target on traced passes
	if h.tr != nil {
		builder = semindex.NewBuilder()
		probe = index.New(builder.Analyzer)
	}
	h.rec.exponent = buildExponent
	src := &sliceSource{pages: pages, chunk: h.sz.BuildChunkPages}
	var chunkEnd time.Time
	var ws, chunkSpan int
	var lastPage *crawler.MatchPage
	src.boundary = func(delivered int) {
		now := time.Now()
		if delivered > 0 {
			h.tr.end(chunkSpan)
			h.rec.observe("chunk", now.Sub(chunkEnd))
			h.attempted++
			if h.tr != nil {
				h.buildLayers(builder, probe, lastPage)
			}
		}
		if delivered%perWindow == 0 && delivered < len(pages) {
			h.tr.end(ws)
			h.rec.begin()
			ws = h.tr.begin("window", 0, 0)
		}
		for i := 0; i < 2; i++ { // a chunk commit cannot be interrupted, so its boundaries carry the samples
			h.rec.sampleRef()
		}
		if delivered < len(pages) {
			lastPage = pages[delivered]
			chunkSpan = h.tr.begin("shard.BuildStream.chunk", ws, 0)
		} else {
			h.tr.end(ws)
		}
		chunkEnd = time.Now()
	}
	// Parallelism 1: pages are prepared one after another. With two workers
	// the build keeps both shared cores busy, and the one-core reference
	// kernel then explains less of its run-to-run drift (in one set of ten,
	// none of it; SPREAD.md); the work per page is the same.
	eng, err := shard.BuildStream(nil, semindex.FullInf, src, shard.Options{
		Shards: shards, Parallelism: 1, ChunkPages: h.sz.BuildChunkPages,
	})
	if err != nil {
		h.failed++
		return err
	}
	defer eng.Close()

	h.finish("chunk", func(raw bool) float64 {
		busy := 0.0
		for _, w := range h.rec.windows {
			f := h.rec.factor(w)
			if raw {
				f = 1
			}
			busy += sum(w.obs["chunk"]) * f
		}
		return float64(eng.NumDocs()) / (busy / 1e3)
	})
	var chunks []float64 // mean normalised chunk time, window by window
	for _, w := range h.rec.windows {
		chunks = append(chunks, mean(w.obs["chunk"])*h.rec.factor(w))
	}
	q := max(len(chunks)/4, 1)
	h.layer["shard.chunk_ms_first_quarter"] = mean(chunks[:q])
	h.layer["shard.chunk_ms_last_quarter"] = mean(chunks[len(chunks)-q:])
	if h.tr != nil {
		h.layer["semindex.page_documents_ms"] = h.rec.value("pagedocs", pct(50), false)
		h.layerMean("semindex.docs_per_page")
		h.layer["index.add_us_per_doc"] = 1e3 * h.rec.value("add_per_doc", pct(50), false)
	}
	h.heapLive(eng)
	h.gate(eng, pool, narrations, -1)
	return nil
}
