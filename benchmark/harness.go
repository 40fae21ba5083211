package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/crawler"
	"repro/internal/loadgen"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	tmpRoot  string // scratch files go under here; removed before exit
	traceOut string
}

// harness carries one pass over one workload: the recorder its windows go
// to, the tracer (nil on untraced passes), the seeded draw source, and the
// tallies the result line is made from.
type harness struct {
	cfg config
	sz  sizes
	rec *recorder
	tr  *tracer
	rng *rand.Rand
	ctx context.Context
	tmp string

	windowShare int // measured windows are windowsFor(...) / windowShare

	attempted, failed int
	req               int
	opHash            hash.Hash64

	setupRaw, setupNorm []float64 // seconds, one per set-up repeat
	heapBase            uint64

	e2e      map[string]float64
	layer    map[string]float64
	notes    map[string][]float64 // samples behind layerAdd / layerMean
	counters map[string]int64     // exact counts; equal across same-seed runs
}

func newHarness(cfg config, ref *refKernel, traced bool, windowShare int) (*harness, error) {
	sz, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg: cfg, sz: sz, rec: &recorder{ref: ref, exponent: 1},
		rng: rand.New(rand.NewSource(cfg.seed)), ctx: context.Background(), tmp: tmp,
		windowShare: windowShare, opHash: fnv.New64a(),
		e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string][]float64{}, counters: map[string]int64{},
	}
	if traced {
		h.tr = &tracer{t0: time.Now()}
	}
	return h, nil
}

func (h *harness) cleanup() { os.RemoveAll(h.tmp) }

func (h *harness) windows(nominalMs int) int {
	n := h.sz.windowsFor(h.cfg.seconds, nominalMs) / h.windowShare
	if n < h.sz.MinWindows {
		n = h.sz.MinWindows
	}
	return n
}

// hashOp folds one operation into the op-sequence hash two same-seed runs
// must agree on.
func (h *harness) hashOp(kind, arg string) {
	h.opHash.Write([]byte(kind))
	h.opHash.Write([]byte(arg))
	h.opHash.Write([]byte{0})
}

// setupClock times one set-up with the reference kernel sampled at points
// inside it. The samples' own time is left out, and each stretch between
// two points is normalised by the mean of the samples that bracket it.
type setupClock struct {
	ref       *refKernel
	last      time.Time
	lastRef   float64
	raw, norm float64 // seconds
	refs      []float64
}

func (c *setupClock) refPoint() {
	busy := time.Since(c.last).Seconds()
	cur := c.ref.sample()
	c.raw += busy
	c.norm += busy * normFactor([]float64{c.lastRef, cur}, 1)
	c.refs = append(c.refs, cur)
	c.lastRef, c.last = cur, time.Now()
}

// setup runs fn SetupRepeats times (once on traced runs, which report no
// setup_s) and keeps the state the last call leaves. fn must drop what the
// previous call built before building again.
func (h *harness) setup(fn func(c *setupClock) error) error {
	repeats := h.sz.SetupRepeats
	if h.cfg.trace {
		repeats = 1
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	h.heapBase = m.HeapAlloc
	for i := 0; i < repeats; i++ {
		c := &setupClock{ref: h.rec.ref}
		c.lastRef = c.ref.sample()
		c.refs = append(c.refs, c.lastRef)
		c.last = time.Now()
		if err := fn(c); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.refPoint()
		h.setupRaw = append(h.setupRaw, c.raw)
		h.setupNorm = append(h.setupNorm, c.norm)
		h.rec.allRef = append(h.rec.allRef, c.refs...)
	}
	return nil
}

// pageTook files one corpus.NextPage call under the set-up's own series.
func (h *harness) pageTook(d time.Duration) { h.layerAdd("corpus.next_page_ms", ms(d)) }

// layerAdd collects samples of a per-layer metric measured outside any
// window (set-up, per-window counts); layerMean reduces them to the metric.
func (h *harness) layerAdd(name string, v float64) { h.notes[name] = append(h.notes[name], v) }

func (h *harness) layerMean(name string) {
	if v := h.notes[name]; len(v) > 0 {
		h.layer[name] = mean(v)
	}
}

// buildEngine is the set-up every workload but bulk_build shares: a
// streamed sharded build of pages at FULL_INF, with reference points at
// chunk boundaries. It empties the pages slice as it goes.
func buildEngine(pages []*crawler.MatchPage, c *setupClock) (*shard.Engine, error) {
	const chunk = 4 // small chunks: a reference point every hundred milliseconds or so
	src := &sliceSource{pages: pages, chunk: chunk}
	if c != nil {
		src.boundary = func(delivered int) {
			if delivered > 0 {
				c.refPoint()
			}
		}
	}
	return shard.BuildStream(nil, semindex.FullInf, src, shard.Options{
		Shards: shards, Parallelism: parallelism, ChunkPages: chunk,
	})
}

// search runs one query through Engine.Search and times it into series
// ("" files it under "search.<cache status>", so hits and misses never
// share a percentile). On traced passes it then replays the per-shard
// kernels from outside - the calls Engine.Search's scatter makes - unless
// the cache answered: self time = search - slowest kernel.
func (h *harness) search(eng *shard.Engine, q loadgen.Query, opts shard.SearchOptions, series string, parent int) shard.SearchResult {
	h.req++
	h.hashOp("S", q.Text)
	req := h.tr.begin("request", parent, h.req)
	id := h.tr.begin("shard.Engine.Search", req, h.req)
	start := time.Now()
	res, err := eng.Search(h.ctx, q.Text, opts)
	d := time.Since(start)
	h.tr.end(id)
	h.attempted++
	if err != nil || res.Report.Degraded {
		h.failed++
	}
	if series == "" {
		series = "search." + string(res.Cache)
	}
	h.rec.observe(series, d)
	if h.tr != nil && res.Cache != shard.CacheHit {
		var slowest time.Duration
		for s := 0; s < eng.NumShards(); s++ {
			id := h.tr.begin("semindex.SemanticIndex.Search", req, h.req)
			start := time.Now()
			eng.Shard(s).Search(q.Text, opts.Limit)
			ds := time.Since(start)
			h.tr.end(id)
			h.rec.observe("kernel", ds)
			h.rec.observe("kernel."+string(q.Class), ds)
			if ds > slowest {
				slowest = ds
			}
		}
		h.rec.observe("kernel.slowest", slowest)
		if self := d - slowest; self > 0 {
			h.rec.observe("search.self", self)
		} else {
			h.rec.observe("search.self", 0)
		}
	}
	h.tr.end(req)
	return res
}

// gate is the correctness check every run ends with. Probe queries must
// rank byte-identically (documents, score bits, tie order) through the
// pruned kernel and the exhaustive oracle. The engine's document count must
// sit between the generator's narration count (every narration indexes to
// one event document) and 3% above it (rule-minted events such as assists
// add the rest), and must equal ledger, the count the workload kept from
// the engine's own per-call results, when it kept one (ledger >= 0).
func (h *harness) gate(eng *shard.Engine, pool []loadgen.Query, narrations, ledger int) {
	probes := rand.New(rand.NewSource(h.cfg.seed)).Perm(len(pool))
	if len(probes) > h.sz.ProbeQueries {
		probes = probes[:h.sz.ProbeQueries]
	}
	fast := make([]shard.SearchResult, len(probes))
	for i, p := range probes {
		fast[i], _ = eng.Search(h.ctx, pool[p].Text, coldOpts)
	}
	eng.SetExhaustiveScoring(true)
	for i, p := range probes {
		slow, err := eng.Search(h.ctx, pool[p].Text, coldOpts)
		h.attempted++
		if err != nil || !sameHits(fast[i].Hits, slow.Hits) {
			h.failed++
			fmt.Fprintf(os.Stderr, "gate: %q ranks differently under exhaustive scoring\n", pool[p].Text)
		}
	}
	eng.SetExhaustiveScoring(false)
	got := eng.NumDocs()
	h.attempted++
	if got < narrations || got > narrations+narrations*3/100 || (ledger >= 0 && got != ledger) {
		h.failed++
		fmt.Fprintf(os.Stderr, "gate: engine holds %d documents; generator made %d narrations, ledger says %d\n", got, narrations, ledger)
	}
	h.counters["docs"] = int64(got)
}

func sameHits(a, b []semindex.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// countNarrations is the generator's document count for pages.
func countNarrations(pages []*crawler.MatchPage) int {
	n := 0
	for _, p := range pages {
		n += len(p.Narrations)
	}
	return n
}

// heapLive records heap_live_mb: HeapAlloc after two collections with keep
// still referenced, less what the harness itself held before set-up.
func (h *harness) heapLive(keep any) {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	live := float64(m.HeapAlloc) - float64(h.heapBase)
	if live < 0 {
		live = 0
	}
	h.e2e["heap_live_mb"] = live / (1 << 20)
	runtime.KeepAlive(keep)
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // linux reports KiB
}

// finish reduces the recorder into the metrics every workload shares. op is
// the series of the workload's measured operation; rate its ops_per_s.
func (h *harness) finish(op string, rate func(raw bool) float64) {
	h.e2e["setup_s"] = median(h.setupNorm)
	h.e2e["op_p50_ms"] = h.rec.value(op, pct(50), false)
	h.e2e["op_p95_ms"] = h.rec.value(op, pct(95), false)
	h.e2e["ops_per_s"] = rate(false)

	h.layer["raw.setup_s"] = median(h.setupRaw)
	h.layer["raw.op_p50_ms"] = h.rec.value(op, pct(50), true)
	h.layer["raw.op_p95_ms"] = h.rec.value(op, pct(95), true)
	h.layer["raw.ops_per_s"] = rate(true)
	h.layer["diag.op_p99_ms"] = h.rec.value(op, pct(99), false)
	h.layer["diag.op_max_ms"] = h.rec.value(op, pct(100), false)
	h.layer["diag.rss_peak_mb"] = rssPeakMB()
	h.layer["diag.windows"] = float64(len(h.rec.windows))
	h.layer["diag.op_samples"] = float64(h.rec.count(op))
	h.layer["diag.ref_samples"] = float64(len(h.rec.allRef))
	h.layer["env.ref_ms_p50"] = median(h.rec.allRef)
	h.layer["env.ref_ms_iqr"] = percentile(h.rec.allRef, 75) - percentile(h.rec.allRef, 25)
	h.layerMean("corpus.next_page_ms")
	h.counters["ops"] = int64(h.attempted)
	h.counters["op_hash"] = int64(h.opHash.Sum64() >> 1)
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Req    int    `json:"req"`    // spans of one request share it; 0 outside requests
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfMs sums, per span name, each span's duration minus the part of it
// its child spans cover. Children are recorded in start order and never
// overlap (one client goroutine), so covered time is a plain sum.
func (t *tracer) selfMs() map[string]float64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			p := t.spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-covered[s.ID]) / 1e6
	}
	return self
}

// write dumps the spans and their self-time summary as one JSON file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		SelfMs map[string]float64 `json:"self_ms_by_name"`
		Spans  []span             `json:"spans"`
	}{t.selfMs(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
