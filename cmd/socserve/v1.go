// The /v1 API is the service's one JSON contract: a typed envelope
// carrying the hits, the degradation report, the trace ID, the cache
// status and server-side timing. The full contract is documented in
// API.md.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// v1MaxLimit is the documented ceiling for the limit parameter. Values
// above it are clamped, not rejected — a client asking for "everything"
// gets the most the API serves.
const v1MaxLimit = 1000

// searchResult is one hit on the wire.
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

// v1SearchResponse is the /v1/search envelope.
type v1SearchResponse struct {
	Query string `json:"query"`
	// TraceID echoes the X-Trace-ID header so logs join on the body alone.
	TraceID string `json:"traceId"`
	// TookUs is the server-side wall time in microseconds.
	TookUs int64 `json:"tookUs"`
	// Cache is the query-cache outcome: hit, miss, coalesced or bypass.
	Cache string `json:"cache"`
	// Total counts the full result set; Hits carries at most limit of them.
	Total      int              `json:"total"`
	Hits       []searchResult   `json:"hits"`
	Facets     []semindex.Facet `json:"facets,omitempty"`
	DidYouMean string           `json:"didYouMean,omitempty"`
	// Degraded is present only when a shard missed its deadline.
	Degraded *v1Degraded `json:"degraded,omitempty"`
}

type v1Degraded struct {
	MissingShards []int `json:"missingShards"`
}

// v1RelatedResponse is the /v1/related envelope.
type v1RelatedResponse struct {
	Doc     int            `json:"doc"`
	TraceID string         `json:"traceId"`
	TookUs  int64          `json:"tookUs"`
	Total   int            `json:"total"`
	Hits    []searchResult `json:"hits"`
}

// v1SuggestResponse is the /v1/suggest envelope. DidYouMean is empty
// when every query token is in the vocabulary.
type v1SuggestResponse struct {
	Query      string `json:"query"`
	TraceID    string `json:"traceId"`
	DidYouMean string `json:"didYouMean"`
}

// v1IngestBatchRequest is the /v1/ingest body: a JSON object carrying
// the pages plus the batch's durability and atomicity knobs.
type v1IngestBatchRequest struct {
	Pages []*crawler.MatchPage `json:"pages"`
	// Durability: "" or "default" follows the WAL's sync policy, "sync"
	// forces an fsync before the 200, "async" acknowledges once the OS
	// holds the bytes.
	Durability string `json:"durability,omitempty"`
	// Atomic (default true) logs the batch as one WAL record: recovery
	// replays all of it or none. False commits and logs page by page; a
	// mid-batch failure commits a prefix, reported in the response.
	Atomic *bool `json:"atomic,omitempty"`
}

// v1IngestBatchResponse acknowledges one committed batch.
type v1IngestBatchResponse struct {
	// SegmentID identifies the in-memory segment the batch became, or
	// for an `atomic:false` batch the last page's (0 when nothing
	// committed).
	SegmentID uint64 `json:"segmentId"`
	TraceID   string `json:"traceId"`
	// TookUs is the server-side wall time in microseconds.
	TookUs int64 `json:"tookUs"`
	// Durability is the acknowledgement level actually delivered:
	// "none" (no WAL), "logged", "synced" or "buffered".
	Durability string `json:"durability"`
	// Pages and Docs count what committed; PerShard splits Docs by shard.
	Pages    int   `json:"pages"`
	Docs     int   `json:"docs"`
	PerShard []int `json:"perShard"`
	// Tombstones counts previously-live documents the batch replaced
	// (pages re-ingested under an existing ID).
	Tombstones int `json:"tombstones"`
	// TotalDocs is the engine's live document count after the batch.
	TotalDocs int `json:"totalDocs"`
}

// v1MaxIngestBatchBytes bounds an ingest body.
const v1MaxIngestBatchBytes = 32 << 20

// v1IngestShape names the one accepted ingest body in error messages.
const v1IngestShape = `a batch {"pages":[...crawler.MatchPage...]}`

// parseV1Limit validates the limit parameter: absent defaults to 10,
// non-numeric or non-positive is a 400, anything above v1MaxLimit clamps.
func parseV1Limit(r *http.Request) (int, error) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		return 10, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf(`parameter "limit" must be a positive integer (values above %d are clamped)`, v1MaxLimit)
	}
	if v > v1MaxLimit {
		v = v1MaxLimit
	}
	return v, nil
}

// v1Results converts engine hits to the wire shape, snippeting the
// narration against the query when one is given. Each hit's fields come
// from one read of its document (empty once an ingest has replaced it).
func v1Results(hits []semindex.Hit, q string, hl index.Highlighter) []searchResult {
	out := make([]searchResult, 0, len(hits))
	for i, h := range hits {
		d := h.Doc()
		res := searchResult{
			Rank:    i + 1,
			Score:   h.Score,
			Kind:    d.Get(semindex.MetaKind),
			Match:   d.Get(semindex.MetaMatchID),
			Minute:  d.Get(semindex.MetaMinute),
			Subject: d.Get(semindex.MetaSubject),
			Object:  d.Get(semindex.MetaObject),
		}
		if narr := d.Get(semindex.FieldNarration); narr != "" {
			if q != "" {
				res.Snippet = hl.Snippet(narr, q)
			} else {
				res.Snippet = narr
			}
		}
		out = append(out, res)
	}
	return out
}

func writeV1(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// registerV1 mounts the versioned API on the handler's mux.
func (h *Handler) registerV1(hl index.Highlighter) {
	h.mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		e, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
			return
		}
		limit, err := parseV1Limit(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		noCache := r.URL.Query().Get("nocache") == "1"
		start := time.Now()
		// Limit 0 fetches the full set: facets and Total need it, and it
		// keeps one cache entry per query across all client limits — the
		// limit itself is applied when slicing the response.
		res, err := h.search(r.Context(), e, q, 0, noCache)
		if err != nil {
			http.Error(w, "search timed out", http.StatusGatewayTimeout)
			return
		}
		all := res.Hits
		hits := all
		if len(hits) > limit {
			hits = hits[:limit]
		}
		resp := v1SearchResponse{
			Query:      q,
			TookUs:     time.Since(start).Microseconds(),
			Cache:      string(res.Cache),
			Total:      len(all),
			Hits:       v1Results(hits, q, hl),
			Facets:     semindex.Facets(all, semindex.MetaKind),
			DidYouMean: e.Suggest(q),
		}
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			resp.TraceID = tr.ID
		}
		if res.Report.Degraded {
			resp.Degraded = &v1Degraded{MissingShards: res.Report.Missing}
			w.Header().Set("X-Search-Degraded", "true")
			w.Header().Set("X-Search-Missing-Shards", intsCSV(res.Report.Missing))
		}
		w.Header().Set("X-Cache", string(res.Cache))
		writeV1(w, resp)
	})

	h.mux.HandleFunc("/v1/related", func(w http.ResponseWriter, r *http.Request) {
		e, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		id, err := strconv.Atoi(r.URL.Query().Get("doc"))
		if err != nil || id < 0 {
			http.Error(w, `parameter "doc" must be a document id`, http.StatusBadRequest)
			return
		}
		limit, err := parseV1Limit(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start := time.Now()
		hits := e.Related(id, limit)
		resp := v1RelatedResponse{
			Doc:    id,
			TookUs: time.Since(start).Microseconds(),
			Total:  len(hits),
			Hits:   v1Results(hits, "", hl),
		}
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			resp.TraceID = tr.ID
		}
		writeV1(w, resp)
	})

	h.mux.HandleFunc("/v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST "+v1IngestShape, http.StatusMethodNotAllowed)
			return
		}
		e, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		var req v1IngestBatchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, v1MaxIngestBatchBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v; the body is %s", err, v1IngestShape), http.StatusBadRequest)
			return
		}
		if len(req.Pages) == 0 {
			http.Error(w, "bad batch: empty pages; the body is "+v1IngestShape, http.StatusBadRequest)
			return
		}
		opts := shard.IngestOptions{}
		switch req.Durability {
		case "", "default":
		case "sync":
			opts.Durability = shard.DurSync
		case "async":
			opts.Durability = shard.DurAsync
		default:
			http.Error(w, `bad batch: durability must be "default", "sync" or "async"`, http.StatusBadRequest)
			return
		}
		if req.Atomic != nil && !*req.Atomic {
			opts.Atomicity = shard.PerPage
		}
		for i, page := range req.Pages {
			if page == nil || page.ID == "" {
				http.Error(w, fmt.Sprintf("bad batch: page %d missing id", i), http.StatusBadRequest)
				return
			}
		}
		start := time.Now()
		// Ingest returns only after the batch is WAL-durable at the level
		// asked for, so this response is the acknowledgement the
		// crash-recovery guarantee is stated over.
		res, err := e.Ingest(r.Context(), req.Pages, opts)
		if err != nil && res.Pages == 0 {
			http.Error(w, fmt.Sprintf("ingest failed: %v", err), http.StatusInternalServerError)
			return
		}
		resp := v1IngestBatchResponse{
			SegmentID:  res.Segment,
			TookUs:     time.Since(start).Microseconds(),
			Durability: res.Durability,
			Pages:      res.Pages,
			Docs:       res.Docs,
			PerShard:   res.PerShard,
			Tombstones: res.Tombstones,
			TotalDocs:  e.NumDocs(),
		}
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			resp.TraceID = tr.ID
		}
		if err != nil {
			// PerPage prefix commit: part of the batch is in. 207 keeps the
			// committed prefix visible while flagging the loss.
			w.Header().Set("X-Ingest-Partial", "true")
			w.WriteHeader(http.StatusMultiStatus)
		}
		writeV1(w, resp)
	})

	h.mux.HandleFunc("/v1/suggest", func(w http.ResponseWriter, r *http.Request) {
		e, ok := h.ready()
		if !ok {
			http.Error(w, "index loading", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
			return
		}
		resp := v1SuggestResponse{Query: q, DidYouMean: e.Suggest(q)}
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			resp.TraceID = tr.ID
		}
		writeV1(w, resp)
	})
}
