package crawler

import (
	"repro/internal/obs"
)

// Metric names the crawler publishes. The CrawlReport already carries the
// same accounting per crawl; these series are the long-lived view a
// scraper watches across crawls.
const (
	metricAttempts  = "crawler_fetch_attempts_total"
	metricRetries   = "crawler_fetch_retries_total"
	metricFailures  = "crawler_fetch_failures_total"
	metricBreaker   = "crawler_breaker_open_total"
	metricPages     = "crawler_pages_total"
	metricFetchSec  = "crawler_fetch_seconds"
	metricLimitWait = "crawler_ratelimit_wait_seconds"
)

// crawlerMetrics holds the crawler's resolved handles; nil handles (from a
// nil registry) make every update a no-op.
type crawlerMetrics struct {
	attempts *obs.Counter
	retries  *obs.Counter
	failures *obs.Counter
	breaker  *obs.Counter
	pages    *obs.Counter
	// fetch observes one resilient fetch end to end — every attempt,
	// backoff and rate-limit wait included.
	fetch *obs.Histogram
	// limitWait observes time spent blocked in the rate limiter, the
	// self-inflicted share of fetch latency.
	limitWait *obs.Histogram
}

func newCrawlerMetrics(r *obs.Registry) *crawlerMetrics {
	r.Help(metricAttempts, "HTTP fetch attempts, including retries.")
	r.Help(metricRetries, "Fetch attempts beyond the first, per request.")
	r.Help(metricFailures, "Requests lost after the whole retry budget.")
	r.Help(metricBreaker, "Attempts short-circuited by an open breaker.")
	r.Help(metricPages, "Match pages successfully fetched and parsed.")
	r.Help(metricFetchSec, "Resilient fetch duration, retries included.")
	r.Help(metricLimitWait, "Time spent waiting on the per-host rate limiter.")
	return &crawlerMetrics{
		attempts:  r.Counter(metricAttempts),
		retries:   r.Counter(metricRetries),
		failures:  r.Counter(metricFailures),
		breaker:   r.Counter(metricBreaker),
		pages:     r.Counter(metricPages),
		fetch:     r.Histogram(metricFetchSec, nil),
		limitWait: r.Histogram(metricLimitWait, nil),
	}
}

// defaultCrawlerMetrics backs every crawler that was not pointed
// elsewhere, so the series exist on obs.Default (with zero values) from
// process start.
var defaultCrawlerMetrics = newCrawlerMetrics(obs.Default)

// metrics returns the crawler's handles, defaulting to obs.Default.
func (c *Crawler) metrics() *crawlerMetrics {
	if c.met != nil {
		return c.met
	}
	return defaultCrawlerMetrics
}
