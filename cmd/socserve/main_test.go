package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/soccer"
)

// testPages is the paper-coverage corpus every handler test serves.
func testPages() []*crawler.MatchPage {
	c := soccer.Generate(soccer.Config{Matches: 2, Seed: 42, NarrationsPerMatch: 60, PaperCoverage: true})
	return crawler.PagesFromCorpus(c)
}

// testEngine builds the FULL_INF engine over testPages in the given
// number of shards, without a query cache.
func testEngine(shards int) *shard.Engine {
	return shard.Build(nil, semindex.FullInf, testPages(), shard.Options{Shards: shards})
}

// testHandler serves the one-shard engine — what socserve runs by
// default.
func testHandler(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(testEngine(1)))
	t.Cleanup(srv.Close)
	return srv
}

// testHandlerSharded serves the same corpus from a 3-shard scatter-gather
// engine.
func testHandlerSharded(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(testEngine(3)))
	t.Cleanup(srv.Close)
	return srv
}

// getV1Search GETs a /v1/search path and decodes its envelope. The
// returned response's body is already closed; its headers stay readable.
func getV1Search(t testing.TB, srv *httptest.Server, path string) (*http.Response, v1SearchResponse) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	var env v1SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp, env
}

// checkMatchesReference holds a /v1/search answer to the monolithic
// SemanticIndex.Search over the same pages, hit for hit: rank, score
// bits, kind, match and minute.
func checkMatchesReference(t *testing.T, name string, env v1SearchResponse, ref []semindex.Hit) {
	t.Helper()
	if len(env.Hits) != len(ref) {
		t.Fatalf("%s: %d hits, reference %d", name, len(env.Hits), len(ref))
	}
	for i, got := range env.Hits {
		want := ref[i]
		if got.Rank != i+1 ||
			math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
			got.Kind != want.Meta(semindex.MetaKind) ||
			got.Match != want.Meta(semindex.MetaMatchID) ||
			got.Minute != want.Meta(semindex.MetaMinute) {
			t.Errorf("%s rank %d: got %+v, reference score %v kind %q match %q minute %q",
				name, i+1, got, want.Score, want.Meta(semindex.MetaKind),
				want.Meta(semindex.MetaMatchID), want.Meta(semindex.MetaMinute))
		}
	}
}

func TestSearchEndpointJSON(t *testing.T) {
	srv := testHandler(t)
	_, env := getV1Search(t, srv, "/v1/search?q=punishment&limit=5")
	if env.Query != "punishment" || env.Total == 0 {
		t.Errorf("response = %+v", env)
	}
	for _, r := range env.Hits {
		if !strings.Contains(r.Kind, "Card") {
			t.Errorf("punishment returned kind %q", r.Kind)
		}
	}
}

func TestFacetsInSearchResponse(t *testing.T) {
	srv := testHandler(t)
	_, env := getV1Search(t, srv, "/v1/search?q=punishment")
	if len(env.Facets) == 0 {
		t.Error("no facets in response")
	}
}

// TestDidYouMean: a query token matching nothing carries a spelling
// suggestion.
func TestDidYouMean(t *testing.T) {
	srv := testHandler(t)
	_, env := getV1Search(t, srv, "/v1/search?q=mesi")
	if !strings.Contains(env.DidYouMean, "messi") {
		t.Errorf("didYouMean = %q", env.DidYouMean)
	}
}

func TestHTMLPage(t *testing.T) {
	srv := testHandler(t)
	resp, err := srv.Client().Get(srv.URL + "/?q=messi+goal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "<b>") {
		t.Errorf("no highlighted results in page:\n%s", body)
	}
	if !strings.Contains(body, `value="messi goal"`) {
		t.Error("search box does not echo the query")
	}
	// Escaping: a hostile query must not inject markup.
	resp2, err := srv.Client().Get(srv.URL + `/?q=%3Cscript%3E`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n2, _ := resp2.Body.Read(buf)
	if strings.Contains(string(buf[:n2]), "<script>") {
		t.Error("query not escaped in page")
	}
}

func TestHealthz(t *testing.T) {
	srv := testHandler(t)
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestShardedHandlerMatchesMonolith: the same query against the one-shard
// and three-shard handlers must produce the monolithic index's result
// list — the serving layer inherits the engine's ranking-equivalence
// guarantee at any shard count.
func TestShardedHandlerMatchesMonolith(t *testing.T) {
	mono := semindex.NewBuilder().Build(semindex.FullInf, testPages())
	one := testHandler(t)
	three := testHandlerSharded(t)
	for _, q := range []string{"punishment", "messi barcelona goal", "yellow card"} {
		ref := mono.Search(q, 10)
		if len(ref) == 0 {
			t.Fatalf("%s: reference returned nothing", q)
		}
		total := len(mono.Search(q, 0))
		path := "/v1/search?q=" + strings.ReplaceAll(q, " ", "+") + "&limit=10"
		for name, srv := range map[string]*httptest.Server{"1 shard": one, "3 shards": three} {
			_, env := getV1Search(t, srv, path)
			if env.Total != total {
				t.Errorf("%s %q: total %d, reference %d", name, q, env.Total, total)
			}
			checkMatchesReference(t, name+" "+q, env, ref)
		}
	}
}

// TestReadiness: the service is live from the first byte but not ready —
// and serves no queries — until an engine is installed.
func TestReadiness(t *testing.T) {
	h := NewHandler(nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Errorf("healthz while loading = %d, want 200 (liveness is not readiness)", got)
	}
	for _, path := range []string{"/readyz", "/v1/search?q=goal", "/v1/related?doc=0", "/"} {
		if got := get(path); got != http.StatusServiceUnavailable {
			t.Errorf("%s while loading = %d, want 503", path, got)
		}
	}

	h.SetSearcher(testEngine(1))
	if got := get("/readyz"); got != 200 {
		t.Errorf("readyz after SetSearcher = %d", got)
	}
	if got := get("/v1/search?q=goal"); got != 200 {
		t.Errorf("search after SetSearcher = %d", got)
	}
}

// TestDegradedShardServing is the serving half of the degraded-search
// acceptance test: with one shard stalled past the per-shard deadline the
// endpoint still answers in budget, merges the live shards, and marks the
// response degraded in both the JSON body and the response headers.
func TestDegradedShardServing(t *testing.T) {
	eng := testEngine(3)
	const stalled = 2
	eng.SetStall(func(i int) {
		if i == stalled {
			time.Sleep(2 * time.Second)
		}
	})
	h := NewHandler(eng)
	h.ShardTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	start := time.Now()
	resp, env := getV1Search(t, srv, "/v1/search?q=goal&limit=10")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("degraded search took %v against a 50ms per-shard budget", elapsed)
	}
	if got := resp.Header.Get("X-Search-Degraded"); got != "true" {
		t.Errorf("X-Search-Degraded = %q", got)
	}
	if got := resp.Header.Get("X-Search-Missing-Shards"); got != "2" {
		t.Errorf("X-Search-Missing-Shards = %q", got)
	}
	if env.Degraded == nil || len(env.Degraded.MissingShards) != 1 || env.Degraded.MissingShards[0] != stalled {
		t.Errorf("body degradation: %+v", env.Degraded)
	}
	if env.Total == 0 {
		t.Error("degraded answer carried no results from the live shards")
	}
}

// TestShardTimeoutHealthyNotDegraded: a configured deadline that every
// shard meets leaves the response unmarked, and the one-shard and
// three-shard answers both equal the monolith's.
func TestShardTimeoutHealthyNotDegraded(t *testing.T) {
	ref := semindex.NewBuilder().Build(semindex.FullInf, testPages()).Search("punishment", 5)
	for _, shards := range []int{1, 3} {
		h := NewHandler(testEngine(shards))
		h.ShardTimeout = 5 * time.Second
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)

		resp, env := getV1Search(t, srv, "/v1/search?q=punishment&limit=5")
		if got := resp.Header.Get("X-Search-Degraded"); got != "" {
			t.Errorf("%d shard(s): healthy search marked degraded: %q", shards, got)
		}
		if env.Degraded != nil || env.Total == 0 {
			t.Errorf("%d shard(s): response = %+v", shards, env)
		}
		checkMatchesReference(t, fmt.Sprintf("%d shard(s)", shards), env, ref)
	}
}

// TestGracefulServe exercises the configured server path: serve on a
// random port, hit /healthz, then shut down via SIGTERM-equivalent cancel.
func TestGracefulServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	drained := make(chan struct{})
	done := make(chan error, 1)
	h := NewHandler(testEngine(1))
	go func() { done <- serve(addr, h, func() { close(drained) }) }()
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
	select {
	case <-drained:
	default:
		t.Error("drain hook did not run during shutdown")
	}
}
