// Command socserve exposes the semantic index as a web search service —
// the deployment shape behind the paper's claim that semantic indexing
// "scales our system up to web search engines". It builds (or loads) a
// FULL_INF shard.Engine — one shard unless -shards says more — and serves:
//
//	GET /v1/search?q=...&limit=10             versioned JSON envelope (see API.md)
//	GET /v1/related?doc=3&limit=10            versioned related-documents lookup
//	GET /v1/suggest?q=mesi                    versioned spelling suggestion
//	GET /                                      a minimal HTML search page
//	POST /v1/ingest                            ingest a batch of crawled match pages
//	GET /healthz                               liveness (always ok while up)
//	GET /readyz                                readiness (503 until the index is loaded;
//	                                           names quarantined shards when degraded)
//	GET /metrics                               Prometheus text-format metrics
//	GET /debug/pprof/*                         profiling endpoints (only with -pprof)
//
// The engine answers repeated queries from an in-process result cache
// (-cache-mb sizes it, -cache-off disables it); every search response
// carries an X-Cache: hit|miss|coalesced|bypass header.
//
// Every response carries an X-Trace-ID header; -access-log prints one line
// per request with that ID, and -slow-query logs the per-shard timeline of
// any request over the threshold.
//
//	socserve -addr :8090
//	socserve -addr :8090 -index idx.bin        load the snapshot at base idx.bin
//	                                           (built and saved there on first run)
//	socserve -addr :8090 -shards 4             4-way scatter-gather per request
//	socserve -addr :8090 -shards 4 -shard-timeout 200ms
//	                                           degraded serving: a shard that
//	                                           misses the deadline is dropped
//	                                           from the merge and the response
//	                                           is marked degraded
//	socserve -addr :8090 -index idx.bin -wal   crash-safe ingest: every
//	                                           /v1/ingest batch is WAL-appended
//	                                           before it is acknowledged and
//	                                           replayed on the next start
//	socserve ... -wal -wal-sync 100ms          amortized fsync (-wal-sync
//	                                           always|off|<interval>)
//	socserve -addr :8090 -index idx.bin -mapped
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

func main() {
	fs := flag.NewFlagSet("socserve", flag.ExitOnError)
	var cf cli.CorpusFlags
	cf.Register(fs)
	addr := fs.String("addr", ":8090", "listen address")
	indexFile := fs.String("index", "", "serve the snapshot at this base (built from the corpus and saved there when absent)")
	shards := fs.Int("shards", 1, "partition a built index N ways, searched by per-request scatter-gather (a loaded snapshot keeps its own count)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard search deadline; a late shard degrades the answer instead of stalling it (0 = wait forever)")
	cacheMB := fs.Int("cache-mb", 64, "query-result cache capacity in MiB (0 disables)")
	cacheOff := fs.Bool("cache-off", false, "disable the query-result cache entirely")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowQuery := fs.Duration("slow-query", 0, "log requests slower than this, with their per-shard trace (0 = off)")
	accessLog := fs.Bool("access-log", false, "log every request with its trace ID to stdout")
	mapped := fs.Bool("mapped", false, "serve the saved snapshot memory-mapped: O(manifest) open, postings decode lazily per block, the index may exceed RAM (requires -index)")
	walOn := fs.Bool("wal", false, "write-ahead log ingested pages next to -index and replay them on start (requires -index)")
	walSync := fs.String("wal-sync", "always", `WAL fsync policy: "always", "off", or a flush interval like "100ms"`)
	fs.Parse(os.Args[1:])

	walOpts, err := parseWALSync(*walSync)
	if err != nil {
		cli.Fatal(err)
	}
	if *walOn && *indexFile == "" {
		cli.Fatal(errors.New("-wal requires -index: the log lives next to the snapshot it extends"))
	}
	if *mapped && *indexFile == "" {
		cli.Fatal(errors.New("-mapped requires -index: only a saved snapshot can be served from its file bytes"))
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
	// tell "loading" apart from "down"; /readyz flips once the engine
	// lands.
	cacheBytes := int64(*cacheMB) << 20
	if *cacheOff {
		cacheBytes = 0
	}

	go func() {
		e, desc, err := loadEngine(&cf, *indexFile, *shards, cacheBytes, *mapped)
		if err != nil {
			cli.Fatal(err)
		}
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
		h.SetSearcher(e)
		fmt.Printf("serving %s on %s\n", desc, *addr)
	}()

	checkpoint := func() {
		e, ok := h.ready()
		if !ok {
			return
		}
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

// loadEngine builds or loads the FULL_INF engine, installs the
// query-result cache sized by cacheBytes (0 serves every query cold) and
// describes the engine.
func loadEngine(cf *cli.CorpusFlags, indexFile string, shards int, cacheBytes int64, mapped bool) (*shard.Engine, string, error) {
	eng, note, err := openEngine(cf, indexFile, shards, mapped)
	if err != nil {
		return nil, "", err
	}
	eng.EnableCache(cacheBytes, obs.Default)
	d := fmt.Sprintf("%s engine (%d docs across %d shards", eng.Level(), eng.NumDocs(), eng.NumShards())
	if mapped {
		d += ", mapped"
	}
	if cacheBytes > 0 {
		d += fmt.Sprintf(", %d MiB cache", cacheBytes>>20)
	}
	return eng, d + ")" + note, nil
}

// openEngine returns the engine loadEngine serves, plus a note for its
// description. Without indexFile the engine is built from the corpus in
// shards partitions; with it, the snapshot at that base is loaded — mapped
// serves it straight from its file bytes (LoadOptions{Mapped}) — after a
// first run has built and saved it there.
func openEngine(cf *cli.CorpusFlags, indexFile string, shards int, mapped bool) (*shard.Engine, string, error) {
	build := func() (*shard.Engine, error) {
		pages, _, err := cf.LoadPages()
		if err != nil {
			return nil, err
		}
		return shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: shards}), nil
	}
	if indexFile == "" {
		eng, err := build()
		return eng, "", err
	}
	if _, err := os.Stat(shard.ManifestPath(indexFile)); os.IsNotExist(err) {
		// First run: nothing saved at the base yet. Build from the corpus
		// and checkpoint immediately so a WAL has a snapshot generation to
		// anchor to.
		eng, err := build()
		if err != nil {
			return nil, "", err
		}
		if err := eng.Save(indexFile); err != nil {
			return nil, "", err
		}
		if !mapped {
			return eng, " [bootstrapped]", nil
		}
		// Fall through to the mapped load of the snapshot just written, so
		// the bootstrapped run serves from disk too.
	}
	eng, err := shard.LoadWith(indexFile, nil, shard.LoadOptions{Mapped: mapped})
	return eng, "", err
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

// Handler is the service: it serves liveness from the moment it exists,
// readiness and search only once an engine is installed, and degraded
// scatter-gather answers when a ShardTimeout is configured and a shard
// blows it.
type Handler struct {
	mux *http.ServeMux
	// eng holds the installed engine; nil until SetSearcher, after which
	// /readyz flips to ready. Atomic so readiness can land mid-traffic.
	eng atomic.Pointer[shard.Engine]
	// ShardTimeout is the per-shard search deadline; 0 waits for every
	// shard.
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

// SetSearcher installs (or replaces) the engine the handler serves from
// and marks the service ready.
func (h *Handler) SetSearcher(e *shard.Engine) {
	h.eng.Store(e)
}

// ready returns the installed engine, or false while still loading.
func (h *Handler) ready() (*shard.Engine, bool) {
	e := h.eng.Load()
	return e, e != nil
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

// search runs one query through the engine: ShardTimeout becomes the
// ctx deadline, and the request trace and cache-bypass flag ride the
// options. The error is non-nil only when the context expired before any
// answer — degraded answers come back as results with Report.Degraded
// set.
func (h *Handler) search(ctx context.Context, e *shard.Engine, q string, limit int, noCache bool) (shard.SearchResult, error) {
	if h.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.ShardTimeout)
		defer cancel()
	}
	return e.Search(ctx, q, shard.SearchOptions{Limit: limit, Trace: obs.TraceFrom(ctx), NoCache: noCache})
}

// NewHandler builds the service over an engine. Pass nil to start
// not-ready and install the engine later with SetSearcher.
func NewHandler(e *shard.Engine) *Handler {
	h := &Handler{mux: http.NewServeMux()}
	h.SetMetrics(obs.Default)
	if e != nil {
		h.SetSearcher(e)
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
		e, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		// An engine that quarantined shards at load still serves — every
		// intact shard answers — but orchestrators and operators need the
		// loss visible where they already look.
		if q := e.Quarantined(); len(q) > 0 {
			w.Header().Set("X-Search-Degraded", "true")
			fmt.Fprintf(w, "ready (degraded: shards %s quarantined)\n", intsCSV(q))
			return
		}
		// Live document count — segment documents not yet merged included,
		// so the number moves the moment an ingest is acknowledged.
		fmt.Fprintf(w, "ready (%d docs)\n", e.NumDocs())
	})

	h.registerV1(hl)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		e, ok := h.ready()
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
			res, err := h.search(r.Context(), e, q, 10, false)
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
				d := h.Doc()
				snippet := d.Get(semindex.FieldNarration)
				if snippet != "" {
					s := html.EscapeString(marker.Snippet(snippet, q))
					s = strings.ReplaceAll(s, "\x01", "<b>")
					snippet = strings.ReplaceAll(s, "\x02", "</b>")
				} else {
					snippet = html.EscapeString(d.Get(semindex.MetaSubject))
				}
				fmt.Fprintf(w, "<li><b>%s</b> %s' — %s</li>\n",
					html.EscapeString(d.Get(semindex.MetaKind)),
					html.EscapeString(d.Get(semindex.MetaMinute)), snippet)
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
