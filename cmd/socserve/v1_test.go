package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/shard"
)

// testHandlerCached serves a 3-shard engine with the query cache enabled
// — the full production shape of the versioned API.
func testHandlerCached(t testing.TB) *httptest.Server {
	t.Helper()
	eng := shard.Build(nil, semindex.FullInf, testPages(), shard.Options{Shards: 3})
	eng.EnableCache(1<<20, obs.Default)
	srv := httptest.NewServer(NewHandler(eng))
	t.Cleanup(srv.Close)
	return srv
}

// TestV1SearchEnvelope: the /v1/search envelope round-trips with every
// contract field populated.
func TestV1SearchEnvelope(t *testing.T) {
	srv := testHandlerCached(t)
	resp, env := getV1Search(t, srv, "/v1/search?q=punishment&limit=5")
	if env.Query != "punishment" {
		t.Errorf("query = %q", env.Query)
	}
	if env.Total == 0 || len(env.Hits) == 0 {
		t.Fatalf("empty envelope: total=%d hits=%d", env.Total, len(env.Hits))
	}
	if len(env.Hits) > 5 {
		t.Errorf("%d hits exceed limit 5", len(env.Hits))
	}
	if env.Total < len(env.Hits) {
		t.Errorf("total %d < %d returned hits", env.Total, len(env.Hits))
	}
	if env.TraceID == "" || env.TraceID != resp.Header.Get("X-Trace-ID") {
		t.Errorf("traceId %q vs header %q", env.TraceID, resp.Header.Get("X-Trace-ID"))
	}
	if env.Cache != string(shard.CacheMiss) {
		t.Errorf("first query cache = %q, want miss", env.Cache)
	}
	if env.Cache != resp.Header.Get("X-Cache") {
		t.Errorf("body cache %q vs header %q", env.Cache, resp.Header.Get("X-Cache"))
	}
	if len(env.Facets) == 0 {
		t.Error("no facets")
	}
	if env.Degraded != nil {
		t.Errorf("healthy answer marked degraded: %+v", env.Degraded)
	}
	for i, h := range env.Hits {
		if h.Rank != i+1 {
			t.Errorf("hit %d rank %d", i, h.Rank)
		}
		if !strings.Contains(h.Kind, "Card") {
			t.Errorf("punishment returned kind %q", h.Kind)
		}
	}
}

// TestV1CacheStatusProgression: miss, then hit, then bypass via nocache.
func TestV1CacheStatusProgression(t *testing.T) {
	srv := testHandlerCached(t)
	get := func(path string) (string, v1SearchResponse) {
		t.Helper()
		resp, env := getV1Search(t, srv, path)
		return resp.Header.Get("X-Cache"), env
	}
	if hdr, env := get("/v1/search?q=goal"); hdr != "miss" || env.Cache != "miss" {
		t.Errorf("first query: header %q body %q, want miss", hdr, env.Cache)
	}
	hdr, warm := get("/v1/search?q=goal")
	if hdr != "hit" || warm.Cache != "hit" {
		t.Errorf("second query: header %q body %q, want hit", hdr, warm.Cache)
	}
	hdr, bypass := get("/v1/search?q=goal&nocache=1")
	if hdr != "bypass" || bypass.Cache != "bypass" {
		t.Errorf("nocache query: header %q body %q, want bypass", hdr, bypass.Cache)
	}
	// The hit serves the exact hits the bypass recomputes.
	if len(warm.Hits) != len(bypass.Hits) {
		t.Fatalf("hit returned %d hits, bypass %d", len(warm.Hits), len(bypass.Hits))
	}
	for i := range warm.Hits {
		if warm.Hits[i] != bypass.Hits[i] {
			t.Errorf("rank %d: cached %+v vs cold %+v", i+1, warm.Hits[i], bypass.Hits[i])
		}
	}
}

// TestV1LimitValidation: non-numeric and non-positive limits are 400s;
// absurd limits clamp to v1MaxLimit instead of erroring.
func TestV1LimitValidation(t *testing.T) {
	srv := testHandlerCached(t)
	for _, path := range []string{
		"/v1/search",
		"/v1/search?q=goal&limit=0",
		"/v1/search?q=goal&limit=-3",
		"/v1/search?q=goal&limit=abc",
		"/v1/related?doc=0&limit=0",
		"/v1/related?doc=x",
		"/v1/suggest",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	_, env := getV1Search(t, srv, fmt.Sprintf("/v1/search?q=goal&limit=%d", v1MaxLimit*100))
	if len(env.Hits) > v1MaxLimit {
		t.Errorf("clamp failed: %d hits", len(env.Hits))
	}
}

// TestV1RelatedAndSuggest: the auxiliary v1 endpoints answer with their
// envelopes.
func TestV1RelatedAndSuggest(t *testing.T) {
	srv := testHandlerCached(t)
	resp, err := srv.Client().Get(srv.URL + "/v1/related?doc=0&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var rel v1RelatedResponse
	err = json.NewDecoder(resp.Body).Decode(&rel)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Doc != 0 || rel.TraceID == "" {
		t.Errorf("related envelope: %+v", rel)
	}
	if rel.Total != len(rel.Hits) || len(rel.Hits) > 5 {
		t.Errorf("related counts: total=%d hits=%d", rel.Total, len(rel.Hits))
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/suggest?q=mesi")
	if err != nil {
		t.Fatal(err)
	}
	var sug v1SuggestResponse
	err = json.NewDecoder(resp.Body).Decode(&sug)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sug.Query != "mesi" || !strings.Contains(sug.DidYouMean, "messi") {
		t.Errorf("suggest envelope: %+v", sug)
	}
}

// TestV1NotReady: the versioned endpoints 503 while the index loads.
func TestV1NotReady(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil))
	defer srv.Close()
	for _, path := range []string{"/v1/search?q=goal", "/v1/related?doc=0", "/v1/suggest?q=goal"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("%s while loading = %d, want 503", path, resp.StatusCode)
		}
	}
}
