package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsEndpoint is the /metrics acceptance test: after one sharded
// search, the default registry exposes per-shard search-latency
// histograms, the engine and handler counters, and the crawler's
// retry/breaker families (at zero — they register at package init).
func TestMetricsEndpoint(t *testing.T) {
	srv := testHandlerSharded(t)
	getV1Search(t, srv, "/v1/search?q=goal&limit=5")

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`shard_search_seconds_bucket{shard="0"`,
		`shard_search_seconds_bucket{shard="1"`,
		`shard_search_seconds_bucket{shard="2"`,
		"# TYPE shard_engine_searches_total counter",
		"# TYPE shard_engine_degraded_total counter",
		"# TYPE socserve_requests_total counter",
		"# TYPE socserve_inflight_requests gauge",
		"# TYPE crawler_fetch_retries_total counter",
		"# TYPE crawler_breaker_open_total counter",
		"# TYPE semindex_queries_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceIDHeader: every response carries a unique X-Trace-ID.
func TestTraceIDHeader(t *testing.T) {
	srv := testHandler(t)
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, _ := getV1Search(t, srv, "/v1/search?q=goal")
		id := resp.Header.Get("X-Trace-ID")
		if id == "" {
			t.Fatal("no X-Trace-ID header")
		}
		if ids[id] {
			t.Fatalf("trace ID %q repeated", id)
		}
		ids[id] = true
	}
}

// TestAccessLog: the access log gets one line per request carrying the
// trace ID the client saw, the path and the status.
func TestAccessLog(t *testing.T) {
	h := NewHandler(testEngine(1))
	var log syncBuilder
	h.AccessLog = &log
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, _ := getV1Search(t, srv, "/v1/search?q=goal&limit=3")
	// The log line lands after the response is flushed; wait for it.
	line := log.wait(t, "200")
	for _, want := range []string{resp.Header.Get("X-Trace-ID"), "GET", "/v1/search?q=goal&limit=3", " 200 "} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}
}

// TestSlowQueryLog: with a floor-level threshold every sharded search is
// "slow" and the log line carries the per-shard spans and the merge.
func TestSlowQueryLog(t *testing.T) {
	h := NewHandler(testEngine(2))
	var log syncBuilder
	h.Slow = &obs.SlowLog{Threshold: time.Nanosecond, Out: &log}
	srv := httptest.NewServer(h)
	defer srv.Close()

	getV1Search(t, srv, "/v1/search?q=goal")
	line := log.wait(t, "merge=")
	for _, want := range []string{"slow query:", "/v1/search", "shard0=", "shard1=", "merge="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log %q missing %q", line, want)
		}
	}
}

// syncBuilder is a mutex-guarded log sink: the handler writes its log
// line after the response is flushed to the client, so tests must both
// synchronize and wait.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// wait blocks until the log contains marker (or 2s pass) and returns it.
func (s *syncBuilder) wait(t *testing.T, marker string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := s.String(); strings.Contains(got, marker) || time.Now().After(deadline) {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPprofGated: the profiling endpoints 404 by default and come alive
// only through EnablePprof — the -pprof flag's wiring.
func TestPprofGated(t *testing.T) {
	h := NewHandler(testEngine(1))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("ungated pprof status %d, want 404", resp.StatusCode)
	}

	h.EnablePprof()
	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("gated-on pprof status %d, want 200", resp.StatusCode)
	}
}

// TestDegradedSearchCounter: a degraded answer moves the service-level
// degraded counter on an isolated registry.
func TestDegradedSearchCounter(t *testing.T) {
	eng := testEngine(3)
	eng.SetStall(func(i int) {
		if i == 1 {
			time.Sleep(2 * time.Second)
		}
	})
	h := NewHandler(eng)
	h.ShardTimeout = 30 * time.Millisecond
	r := obs.NewRegistry()
	h.SetMetrics(r)
	eng.SetMetrics(r)
	srv := httptest.NewServer(h)
	defer srv.Close()

	getV1Search(t, srv, "/v1/search?q=goal")
	// The middleware counts after the response is flushed; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for r.Counter(metricRequests).Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := r.Counter(metricDegraded).Value(); got != 1 {
		t.Errorf("socserve degraded counter = %d, want 1", got)
	}
	if got := r.Counter("shard_engine_degraded_total").Value(); got != 1 {
		t.Errorf("engine degraded counter = %d, want 1", got)
	}
	if got := r.Counter(metricRequests).Value(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
}
