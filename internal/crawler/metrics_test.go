package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestCrawlMetricsCleanCrawl: a clean crawl moves attempts, pages and the
// fetch histogram, and nothing else.
func TestCrawlMetricsCleanCrawl(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	cr := New()
	r := obs.NewRegistry()
	cr.met = newCrawlerMetrics(r)
	rep, err := cr.Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Listing + one fetch per match page, no retries needed.
	wantAttempts := uint64(len(rep.Pages) + 1)
	if got := r.Counter(metricAttempts).Value(); got != wantAttempts {
		t.Errorf("attempts = %d, want %d", got, wantAttempts)
	}
	if got := r.Counter(metricPages).Value(); got != uint64(len(rep.Pages)) {
		t.Errorf("pages = %d, want %d", got, len(rep.Pages))
	}
	if got := r.Histogram(metricFetchSec, nil).Count(); got != wantAttempts {
		t.Errorf("fetch observations = %d, want %d", got, wantAttempts)
	}
	for _, name := range []string{metricRetries, metricFailures, metricBreaker} {
		if got := r.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d on a clean crawl", name, got)
		}
	}
}

// TestCrawlMetricsRetriesAndFailures: a flaky origin shows up in the retry
// counter, a permanently dead page in the failure counter, and the per-
// crawl CrawlReport stats agree with the registry.
func TestCrawlMetricsRetriesAndFailures(t *testing.T) {
	c := testCorpus(t)
	inner := NewServer(c)
	dead := "/match/" + c.Matches[0].ID
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/match/") {
			if r.URL.Path == dead {
				http.Error(w, "gone for good", http.StatusServiceUnavailable)
				return
			}
			// Every other page fails once, then recovers.
			if n.Add(1)%2 == 1 {
				http.Error(w, "flaky", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cr := &Crawler{Retry: fastRetry(2)}
	r := obs.NewRegistry()
	cr.met = newCrawlerMetrics(r)
	rep, err := cr.Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() {
		t.Fatal("dead page did not degrade the crawl")
	}
	if got := r.Counter(metricRetries).Value(); got != uint64(rep.Stats.Retries) {
		t.Errorf("retries = %d, report says %d", got, rep.Stats.Retries)
	}
	if got := r.Counter(metricAttempts).Value(); got != uint64(rep.Stats.Attempts) {
		t.Errorf("attempts = %d, report says %d", got, rep.Stats.Attempts)
	}
	if got := r.Counter(metricFailures).Value(); got != uint64(len(rep.Failures)) {
		t.Errorf("failures = %d, report lists %d", got, len(rep.Failures))
	}
	if got := r.Counter(metricPages).Value(); got != uint64(len(rep.Pages)) {
		t.Errorf("pages = %d, report has %d", got, len(rep.Pages))
	}
}

// TestCrawlMetricsBreakerAndLimiter: breaker short-circuits land in
// crawler_breaker_open_total and limiter waits in the wait histogram.
func TestCrawlMetricsBreakerAndLimiter(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer always.Close()

	cr := &Crawler{
		Retry:   fastRetry(6),
		Breaker: resilience.NewBreaker(2, time.Minute),
		Limiter: resilience.NewLimiter(1000, 1),
	}
	r := obs.NewRegistry()
	cr.met = newCrawlerMetrics(r)
	if _, err := cr.Crawl(context.Background(), always.URL); err == nil {
		t.Fatal("crawl of a dead origin succeeded")
	}
	if got := r.Counter(metricBreaker).Value(); got == 0 {
		t.Error("breaker opened but crawler_breaker_open_total = 0")
	}
	if got := r.Counter(metricFailures).Value(); got == 0 {
		t.Error("listing was lost but crawler_fetch_failures_total = 0")
	}
	if got := r.Histogram(metricLimitWait, nil).Count(); got == 0 {
		t.Error("limiter engaged but wait histogram is empty")
	}
}

// TestCrawlerDefaultRegistry: an untouched crawler publishes to
// obs.Default, so the series exist process-wide without wiring.
func TestCrawlerDefaultRegistry(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	before := obs.Default.Counter(metricPages).Value()
	if _, err := New().Crawl(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if after := obs.Default.Counter(metricPages).Value(); after <= before {
		t.Errorf("default-registry pages did not grow: %d -> %d", before, after)
	}
}
