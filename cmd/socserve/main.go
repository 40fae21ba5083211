// Command socserve exposes the semantic index as a web search service —
// the deployment shape behind the paper's claim that semantic indexing
// "scales our system up to web search engines". It builds (or loads) a
// FULL_INF index — monolithic or sharded — and serves:
//
//	GET /v1/search?q=...&limit=10             versioned JSON envelope (see API.md)
//	GET /v1/related?doc=3&limit=10            versioned related-documents lookup
//	GET /v1/suggest?q=mesi                    versioned spelling suggestion
//	GET /search?q=messi+barcelona+goal&n=10   legacy JSON results with snippets
//	GET /related?doc=3                        legacy related documents
//	GET /                                      a minimal HTML search page
//	POST /v1/ingest                            ingest one crawled match page (sharded engine)
//	GET /healthz                               liveness (always ok while up)
//	GET /readyz                                readiness (503 until the index is loaded;
//	                                           names quarantined shards when degraded)
//	GET /metrics                               Prometheus text-format metrics
//	GET /debug/pprof/*                         profiling endpoints (only with -pprof)
//
// Sharded engines answer repeated queries from an in-process result
// cache (-cache-mb sizes it, -cache-off disables it); every search
// response carries an X-Cache: hit|miss|coalesced|bypass header.
//
// Every response carries an X-Trace-ID header; -access-log prints one line
// per request with that ID, and -slow-query logs the per-shard timeline of
// any request over the threshold.
//
//	socserve -addr :8090
//	socserve -addr :8090 -index idx.bin
//	socserve -addr :8090 -shards 4             sharded engine, per-request scatter-gather
//	socserve -addr :8090 -shards 4 -index idx.bin
//	                                           load idx.bin.shard000 ... 003
//	socserve -addr :8090 -shards 4 -shard-timeout 200ms
//	                                           degraded serving: a shard that
//	                                           misses the deadline is dropped
//	                                           from the merge and the response
//	                                           is marked degraded
//	socserve -addr :8090 -shards 4 -index idx.bin -wal
//	                                           crash-safe ingest: every
//	                                           /v1/ingest page is WAL-appended
//	                                           before it is acknowledged and
//	                                           replayed on the next start
//	socserve ... -wal -wal-sync 100ms          amortized fsync (-wal-sync
//	                                           always|off|<interval>)
//	socserve -addr :8090 -shards 4 -index idx.bin -mapped
//	                                           serve straight from the snapshot
//	                                           bytes: O(manifest) open, lazy
//	                                           block decode, index may exceed
//	                                           RAM (see DESIGN.md §15)
//
// The listener comes up immediately and reports readiness once the index
// is loaded, so orchestrators can distinguish "starting" from "dead". It
// is a fully-configured http.Server (header/read/write timeouts) and shuts
// down gracefully on SIGINT/SIGTERM, draining in-flight searches before
// exiting. With -wal the drain also checkpoints: the engine is saved back
// to the -index base (folding the log into the snapshot) and the WAL is
// rotated, so the next start recovers instantly instead of replaying. A
// degraded engine refuses the checkpoint — the quarantined snapshot stays
// on disk for repair instead of being overwritten by a partial one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/wal"
)

// maxResults caps the n query parameter: user input never reaches the
// search layer unclamped.
const maxResults = 100

// searcher is the serving surface both index shapes provide beyond the
// main query path: related-document lookup and spelling suggestions.
// The query path itself splits by shape below.
type searcher interface {
	Related(docID int, limit int) []semindex.Hit
	Suggest(query string) string
}

// unifiedSearcher is the redesigned query surface: one Search taking a
// context (deadline, cancellation) and an options struct (trace, limit,
// cache bypass). The sharded engine implements it; results carry the
// degradation report and the cache status for the X-Cache header.
type unifiedSearcher interface {
	searcher
	Search(ctx context.Context, query string, opts shard.SearchOptions) (shard.SearchResult, error)
}

// legacySearcher is the monolithic index's plain query surface — no
// deadline, no cache, no per-shard spans.
type legacySearcher interface {
	searcher
	Search(query string, limit int) []semindex.Hit
}

type searchResult struct {
	Rank    int     `json:"rank"`
	Score   float64 `json:"score"`
	Kind    string  `json:"kind"`
	Match   string  `json:"match"`
	Minute  string  `json:"minute"`
	Subject string  `json:"subject,omitempty"`
	Object  string  `json:"object,omitempty"`
	Snippet string  `json:"snippet,omitempty"`
}

type searchResponse struct {
	Query   string           `json:"query"`
	Took    string           `json:"took"`
	Total   int              `json:"total"`
	Results []searchResult   `json:"results"`
	Facets  []semindex.Facet `json:"facets,omitempty"`
	// DidYouMean carries a spelling suggestion when the query has a token
	// matching nothing in the index.
	DidYouMean string `json:"didYouMean,omitempty"`
	// Degraded is true when a shard missed its deadline and the results
	// are merged from the remaining shards only.
	Degraded bool `json:"degraded,omitempty"`
	// MissingShards names the shards absent from a degraded answer.
	MissingShards []int `json:"missingShards,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("socserve", flag.ExitOnError)
	var cf cli.CorpusFlags
	cf.Register(fs)
	addr := fs.String("addr", ":8090", "listen address")
	indexFile := fs.String("index", "", "load a saved index instead of building")
	shards := fs.Int("shards", 0, "serve from an N-way sharded engine (with -index: load <index>.shard* files)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard search deadline; a late shard degrades the answer instead of stalling it (0 = wait forever)")
	cacheMB := fs.Int("cache-mb", 64, "query-result cache capacity in MiB for the sharded engine (0 disables)")
	cacheOff := fs.Bool("cache-off", false, "disable the query-result cache entirely")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowQuery := fs.Duration("slow-query", 0, "log requests slower than this, with their per-shard trace (0 = off)")
	accessLog := fs.Bool("access-log", false, "log every request with its trace ID to stdout")
	mapped := fs.Bool("mapped", false, "serve the saved snapshot memory-mapped: O(manifest) open, postings decode lazily per block, the index may exceed RAM (requires -shards and -index)")
	walOn := fs.Bool("wal", false, "write-ahead log ingested pages next to -index and replay them on start (requires -shards and -index)")
	walSync := fs.String("wal-sync", "always", `WAL fsync policy: "always", "off", or a flush interval like "100ms"`)
	fs.Parse(os.Args[1:])

	walOpts, err := parseWALSync(*walSync)
	if err != nil {
		cli.Fatal(err)
	}
	if *walOn && (*shards == 0 || *indexFile == "") {
		cli.Fatal(errors.New("-wal requires -shards and -index: the log lives next to the snapshot it extends"))
	}
	if *mapped && (*shards == 0 || *indexFile == "") {
		cli.Fatal(errors.New("-mapped requires -shards and -index: only a saved sharded snapshot can be served from its file bytes"))
	}

	h := NewHandler(nil)
	h.ShardTimeout = *shardTimeout
	if *pprofOn {
		h.EnablePprof()
	}
	if *slowQuery > 0 {
		h.Slow = &obs.SlowLog{Threshold: *slowQuery, Out: os.Stderr}
	}
	if *accessLog {
		h.AccessLog = os.Stdout
	}

	// The listener comes up before the index so /healthz and /readyz can
	// tell "loading" apart from "down"; /readyz flips once the searcher
	// lands.
	cacheBytes := int64(*cacheMB) << 20
	if *cacheOff {
		cacheBytes = 0
	}

	// eng holds the sharded engine once loaded, for the shutdown
	// checkpoint; nil for monolithic shapes or while still loading.
	var eng atomic.Pointer[shard.Engine]
	go func() {
		s, desc, err := loadSearcher(&cf, *indexFile, *shards, cacheBytes, *mapped)
		if err != nil {
			cli.Fatal(err)
		}
		if e, ok := s.(*shard.Engine); ok {
			if *walOn {
				if err := e.AttachWAL(*indexFile, walOpts); err != nil {
					cli.Fatal(err)
				}
				rep := e.LoadReport()
				if rep.WALReplayed > 0 || rep.WALTorn {
					fmt.Printf("wal: replayed %d record(s), torn tail: %v\n", rep.WALReplayed, rep.WALTorn)
				}
			}
			if q := e.Quarantined(); len(q) > 0 {
				fmt.Printf("WARNING: serving degraded, shards %v quarantined at load\n", q)
			}
			// Background compaction keeps the segment count bounded under a
			// write firehose; stopped (and compacted) at shutdown.
			e.StartMerger(shard.MergePolicy{})
			eng.Store(e)
		}
		h.SetSearcher(s)
		fmt.Printf("serving %s on %s\n", desc, *addr)
	}()

	checkpoint := func() {
		e := eng.Load()
		if e == nil {
			return
		}
		e.StopMerger()
		if *walOn {
			// The drain is the last chance to fold the WAL into the snapshot;
			// a degraded engine refuses (ErrDegraded) so a partial index never
			// overwrites the repairable one, and its WAL stays for replay.
			if err := e.Save(*indexFile); err != nil {
				if errors.Is(err, shard.ErrDegraded) {
					fmt.Printf("skipping shutdown checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "shutdown checkpoint failed: %v\n", err)
				}
			} else {
				fmt.Printf("checkpointed %s at generation %d\n", *indexFile, e.Generation())
			}
		}
		// Close after the drain: no request can still be reading mapped
		// bytes, and the WAL (if any) syncs on detach.
		if err := e.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing engine: %v\n", err)
		}
	}

	if err := serve(*addr, h, checkpoint); err != nil {
		cli.Fatal(err)
	}
}

// parseWALSync maps the -wal-sync flag to a WAL policy: "always" fsyncs
// per append, "off"/"never" leaves durability to the page cache, and a
// duration amortizes fsyncs over that interval.
func parseWALSync(s string) (wal.Options, error) {
	switch s {
	case "always", "":
		return wal.Options{Policy: wal.SyncAlways}, nil
	case "off", "never":
		return wal.Options{Policy: wal.SyncNever}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return wal.Options{}, fmt.Errorf(`-wal-sync must be "always", "off" or a positive duration, not %q`, s)
	}
	return wal.Options{Policy: wal.SyncInterval, Interval: d}, nil
}

// loadSearcher builds or loads the configured index shape and describes
// it. Sharded shapes get the query-result cache sized by cacheBytes
// (0 serves every query cold). mapped serves a saved snapshot straight
// from its file bytes (LoadOptions{Mapped}).
func loadSearcher(cf *cli.CorpusFlags, indexFile string, shards int, cacheBytes int64, mapped bool) (searcher, string, error) {
	describe := func(eng *shard.Engine) string {
		d := fmt.Sprintf("%s engine (%d docs across %d shards", eng.Level(), eng.NumDocs(), eng.NumShards())
		if mapped {
			d += ", mapped"
		}
		if cacheBytes > 0 {
			return d + fmt.Sprintf(", %d MiB cache)", cacheBytes>>20)
		}
		return d + ")"
	}
	switch {
	case shards > 0 && indexFile != "":
		if _, err := os.Stat(shard.ManifestPath(indexFile)); os.IsNotExist(err) {
			// First run: nothing saved at the base yet. Build from the
			// corpus and checkpoint immediately so a WAL has a snapshot
			// generation to anchor to.
			pages, _, err := cf.LoadPages()
			if err != nil {
				return nil, "", err
			}
			eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: shards, CacheBytes: cacheBytes})
			if err := eng.Save(indexFile); err != nil {
				return nil, "", err
			}
			if !mapped {
				return eng, describe(eng) + " [bootstrapped]", nil
			}
			// Fall through to the mapped load of the snapshot just
			// written, so the bootstrapped run serves from disk too.
		}
		eng, err := shard.LoadWith(indexFile, nil, shard.LoadOptions{Mapped: mapped})
		if err != nil {
			return nil, "", err
		}
		eng.EnableCache(cacheBytes, obs.Default)
		return eng, describe(eng), nil
	case shards > 0:
		pages, _, err := cf.LoadPages()
		if err != nil {
			return nil, "", err
		}
		eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: shards, CacheBytes: cacheBytes})
		return eng, describe(eng), nil
	case indexFile != "":
		f, err := os.Open(indexFile)
		if err != nil {
			return nil, "", err
		}
		si, err := semindex.Load(f, nil)
		f.Close()
		if err != nil {
			return nil, "", err
		}
		return si, fmt.Sprintf("%s index (%d docs)", si.Level, si.Index.NumDocs()), nil
	default:
		pages, _, err := cf.LoadPages()
		if err != nil {
			return nil, "", err
		}
		si := semindex.NewBuilder().Build(semindex.FullInf, pages)
		return si, fmt.Sprintf("%s index (%d docs)", si.Level, si.Index.NumDocs()), nil
	}
}

// serve runs a configured http.Server until SIGINT/SIGTERM, then drains
// in-flight requests through a bounded graceful shutdown. drain runs
// after the listener has stopped accepting and in-flight requests have
// finished — the quiesced moment the shutdown checkpoint needs.
func serve(addr string, h http.Handler, drain func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if drain != nil {
		drain()
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// parseN clamps the n query parameter to 1..maxResults, defaulting to 10.
// Malformed, negative, zero or oversized values are rejected.
func parseN(r *http.Request) (int, error) {
	s := r.URL.Query().Get("n")
	if s == "" {
		return 10, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 || v > maxResults {
		return 0, fmt.Errorf(`parameter "n" must be 1..%d`, maxResults)
	}
	return v, nil
}

// Handler is the service: it serves liveness from the moment it exists,
// readiness and search only once a searcher is installed, and degraded
// scatter-gather answers when a ShardTimeout is configured and a shard
// blows it.
type Handler struct {
	mux *http.ServeMux
	// s holds the installed searcher; nil until SetSearcher, after which
	// /readyz flips to ready. Atomic so readiness can land mid-traffic.
	s atomic.Pointer[searcherSlot]
	// ShardTimeout is the per-shard search deadline applied when the
	// searcher is a sharded engine; 0 waits for every shard.
	ShardTimeout time.Duration
	// AccessLog, when set, receives one line per request: trace ID,
	// method, path, status, duration. Nil disables access logging.
	AccessLog io.Writer
	// Slow, when set, logs traces slower than its threshold — the
	// slow-query log. Nil logs nothing.
	Slow *obs.SlowLog

	// reg backs /metrics and the handler's own series. Set before serving
	// traffic (SetMetrics); NewHandler wires obs.Default.
	reg *obs.Registry
	hm  handlerMetrics
}

// Handler metric names.
const (
	metricRequests = "socserve_requests_total"
	metricReqSec   = "socserve_request_seconds"
	metricInflight = "socserve_inflight_requests"
	metricDegraded = "socserve_degraded_searches_total"
)

// handlerMetrics are the service-level series, one step above the engine's.
type handlerMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
	degraded *obs.Counter
}

// SetMetrics points /metrics and the handler's own series at a registry
// (nil disables the handler's instrumentation and empties /metrics).
// Call before serving traffic.
func (h *Handler) SetMetrics(r *obs.Registry) {
	h.reg = r
	r.Help(metricRequests, "HTTP requests served.")
	r.Help(metricReqSec, "HTTP request latency.")
	r.Help(metricInflight, "Requests currently being served.")
	r.Help(metricDegraded, "Search responses answered without every shard.")
	h.hm = handlerMetrics{
		requests: r.Counter(metricRequests),
		latency:  r.Histogram(metricReqSec, nil),
		inflight: r.Gauge(metricInflight),
		degraded: r.Counter(metricDegraded),
	}
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ —
// behind the -pprof flag because profiling endpoints expose internals and
// cost CPU when scraped.
func (h *Handler) EnablePprof() {
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// searcherSlot boxes the searcher interface for atomic.Pointer.
type searcherSlot struct{ s searcher }

// SetSearcher installs (or replaces) the index the handler serves from
// and marks the service ready.
func (h *Handler) SetSearcher(s searcher) {
	h.s.Store(&searcherSlot{s: s})
}

// ready returns the installed searcher, or false while still loading.
func (h *Handler) ready() (searcher, bool) {
	slot := h.s.Load()
	if slot == nil || slot.s == nil {
		return nil, false
	}
	return slot.s, true
}

// ServeHTTP is the observability middleware around the mux: every request
// gets a trace (ID surfaced as X-Trace-ID and threaded through the
// context for the engine's per-shard spans), the in-flight gauge and
// request counter/histogram move, degraded search answers are counted,
// and the access log and slow-query log get their lines.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := obs.NewTrace(r.URL.Path)
	h.hm.inflight.Inc()
	defer h.hm.inflight.Dec()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	sw.Header().Set("X-Trace-ID", tr.ID)

	h.mux.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))

	total := tr.Finish()
	h.hm.requests.Inc()
	h.hm.latency.ObserveDuration(total)
	if sw.Header().Get("X-Search-Degraded") == "true" {
		h.hm.degraded.Inc()
	}
	if h.AccessLog != nil {
		fmt.Fprintf(h.AccessLog, "%s %s %s %d %s\n",
			tr.ID, r.Method, r.URL.RequestURI(), sw.code, total.Round(time.Microsecond))
	}
	h.Slow.Record(tr)
}

// search runs one query through the searcher's best surface: the unified
// context+options Search when available (ShardTimeout becomes the ctx
// deadline, the request trace and cache-bypass flag ride the options),
// else the legacy interface under a whole-query span. The error is
// non-nil only when the context expired before any answer — degraded
// answers come back as results with Report.Degraded set.
func (h *Handler) search(ctx context.Context, s searcher, q string, limit int, noCache bool) (shard.SearchResult, error) {
	tr := obs.TraceFrom(ctx)
	if us, ok := s.(unifiedSearcher); ok {
		if h.ShardTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, h.ShardTimeout)
			defer cancel()
		}
		return us.Search(ctx, q, shard.SearchOptions{Limit: limit, Trace: tr, NoCache: noCache})
	}
	ls, ok := s.(legacySearcher)
	if !ok {
		return shard.SearchResult{Cache: shard.CacheBypass}, nil
	}
	done := tr.Span("search")
	hits := ls.Search(q, limit)
	done()
	return shard.SearchResult{Hits: hits, Cache: shard.CacheBypass}, nil
}

// NewHandler builds the service over any searcher (a monolithic index or
// a sharded engine). Pass nil to start not-ready and install the searcher
// later with SetSearcher.
func NewHandler(s searcher) *Handler {
	h := &Handler{mux: http.NewServeMux()}
	h.SetMetrics(obs.Default)
	if s != nil {
		h.SetSearcher(s)
	}
	hl := index.Highlighter{Pre: "<b>", Post: "</b>"}
	mux := h.mux

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.Handler(h.reg).ServeHTTP(w, r)
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		// An engine that quarantined shards at load still serves — every
		// intact shard answers — but orchestrators and operators need the
		// loss visible where they already look.
		if qs, ok := s.(interface{ Quarantined() []int }); ok {
			if q := qs.Quarantined(); len(q) > 0 {
				w.Header().Set("X-Search-Degraded", "true")
				fmt.Fprintf(w, "ready (degraded: shards %s quarantined)\n", intsCSV(q))
				return
			}
		}
		// Live document count — segment documents not yet merged included,
		// so the number moves the moment an ingest is acknowledged.
		if nd, ok := s.(interface{ NumDocs() int }); ok {
			fmt.Fprintf(w, "ready (%d docs)\n", nd.NumDocs())
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		s, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
			return
		}
		n, err := parseN(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start := time.Now()
		// One unbounded-size fetch serves both the ranked page and the
		// facet counts; the per-shard deadline bounds its time instead.
		// Fetching the full set also gives every user limit one cache key.
		res, err := h.search(r.Context(), s, q, 0, false)
		if err != nil {
			http.Error(w, "search timed out", http.StatusGatewayTimeout)
			return
		}
		all, rep := res.Hits, res.Report
		hits := all
		if len(hits) > n {
			hits = hits[:n]
		}
		resp := searchResponse{
			Query:         q,
			Took:          time.Since(start).Round(time.Microsecond).String(),
			Total:         len(hits),
			Degraded:      rep.Degraded,
			MissingShards: rep.Missing,
		}
		for i, h := range hits {
			res := searchResult{
				Rank:    i + 1,
				Score:   h.Score,
				Kind:    h.Meta(semindex.MetaKind),
				Match:   h.Meta(semindex.MetaMatchID),
				Minute:  h.Meta(semindex.MetaMinute),
				Subject: h.Meta(semindex.MetaSubject),
				Object:  h.Meta(semindex.MetaObject),
			}
			if narr := h.Doc.Get(semindex.FieldNarration); narr != "" {
				res.Snippet = hl.Snippet(narr, q)
			}
			resp.Results = append(resp.Results, res)
		}
		// Facet the full result set by event kind for drill-down.
		resp.Facets = semindex.Facets(all, semindex.MetaKind)
		resp.DidYouMean = s.Suggest(q)
		if rep.Degraded {
			// Headers mirror the JSON so load balancers and caches can act
			// on degradation without parsing the body.
			w.Header().Set("X-Search-Degraded", "true")
			w.Header().Set("X-Search-Missing-Shards", intsCSV(rep.Missing))
		}
		w.Header().Set("X-Cache", string(res.Cache))
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/related", func(w http.ResponseWriter, r *http.Request) {
		s, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		id, err := strconv.Atoi(r.URL.Query().Get("doc"))
		if err != nil || id < 0 {
			http.Error(w, `parameter "doc" must be a document id`, http.StatusBadRequest)
			return
		}
		hits := s.Related(id, 10)
		out := make([]searchResult, 0, len(hits))
		for i, h := range hits {
			out = append(out, searchResult{
				Rank: i + 1, Score: h.Score,
				Kind:    h.Meta(semindex.MetaKind),
				Match:   h.Meta(semindex.MetaMatchID),
				Minute:  h.Meta(semindex.MetaMinute),
				Subject: h.Meta(semindex.MetaSubject),
				Snippet: h.Doc.Get(semindex.FieldNarration),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	h.registerV1(hl)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		s, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query().Get("q")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<html><head><title>Semantic Soccer Search</title></head><body>
<h2>Semantic Soccer Search</h2>
<form action="/"><input name="q" size="50" value="%s"> <input type="submit" value="Search"></form>
`, html.EscapeString(q))
		if q != "" {
			res, err := h.search(r.Context(), s, q, 10, false)
			if err != nil {
				fmt.Fprintln(w, "<p><i>search timed out</i></p></body></html>")
				return
			}
			hits, rep := res.Hits, res.Report
			if rep.Degraded {
				fmt.Fprintf(w, "<p><i>partial results: %d shard(s) timed out</i></p>\n", len(rep.Missing))
			}
			fmt.Fprintf(w, "<p>%d results</p><ol>\n", len(hits))
			// Highlight on the raw text with sentinel markers, escape, then
			// swap the markers for tags — highlighting escaped text would
			// split names like Eto'o at the entity boundary.
			marker := index.Highlighter{Pre: "\x01", Post: "\x02"}
			for _, h := range hits {
				snippet := h.Doc.Get(semindex.FieldNarration)
				if snippet != "" {
					s := html.EscapeString(marker.Snippet(snippet, q))
					s = strings.ReplaceAll(s, "\x01", "<b>")
					snippet = strings.ReplaceAll(s, "\x02", "</b>")
				} else {
					snippet = html.EscapeString(h.Meta(semindex.MetaSubject))
				}
				fmt.Fprintf(w, "<li><b>%s</b> %s' — %s</li>\n",
					html.EscapeString(h.Meta(semindex.MetaKind)),
					html.EscapeString(h.Meta(semindex.MetaMinute)), snippet)
			}
			fmt.Fprintln(w, "</ol>")
		}
		fmt.Fprintln(w, "</body></html>")
	})
	return h
}

// intsCSV renders shard indices as "1,3" for the degraded-answer header.
func intsCSV(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
