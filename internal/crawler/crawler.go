package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/resilience"
)

// DefaultMaxBodyBytes caps a fetched page body. The cap exists so a
// misbehaving origin cannot balloon an index build; exceeding it is a
// terminal per-page error, never a silently clipped page.
const DefaultMaxBodyBytes = 8 << 20

// Crawler fetches a match site: the listing page, then every linked match
// page, concurrently with a bounded worker pool. It is deliberately a real
// HTTP client so the acquisition path of the paper's pipeline is exercised
// end to end, even though the site it points at is usually the in-process
// Server.
//
// The zero value is the *unprotected* client: no retries, no rate limit,
// no circuit breaker, degrade-don't-abort crawls. New returns the hardened
// production configuration. Either way "no retries" is now expressible —
// the old zero-means-2 trap is gone.
type Crawler struct {
	// Client is the HTTP client; nil uses a client with a 10s timeout.
	Client *http.Client
	// Concurrency bounds parallel fetches; 0 means 4.
	Concurrency int
	// Retry is the backoff policy for transient per-request failures. The
	// zero value retries nothing; terminal errors (4xx, oversized or
	// malformed pages) are never retried regardless.
	Retry resilience.Policy
	// Limiter, when set, throttles requests per host.
	Limiter *resilience.Limiter
	// Breaker, when set, short-circuits requests to hosts that keep
	// failing, and probes them back in half-open state.
	Breaker *resilience.Breaker
	// Strict restores the historical all-or-nothing contract: any page
	// failure aborts the crawl. When false (the default), Crawl returns
	// every recoverable page plus an accounting of the losses.
	Strict bool
	// MaxBodyBytes caps one page body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// met holds resolved metric handles (see metrics.go); nil means the
	// process-wide defaults on obs.Default. Tests point it at a fresh
	// registry before Crawl; fetch workers read it concurrently afterwards.
	met *crawlerMetrics
}

// New returns the production crawler: retries with exponential backoff and
// full jitter, a per-host circuit breaker, and degraded (non-strict)
// crawls. Real match sites drop requests under load, and losing a whole
// crawl to one hiccup would lose a whole index build.
func New() *Crawler {
	return &Crawler{
		Retry:   resilience.DefaultPolicy(),
		Breaker: resilience.NewBreaker(8, time.Second),
	}
}

// FetchFailure is one page the crawl could not recover: its URL, the final
// error after the retry budget, and how many attempts were spent on it.
type FetchFailure struct {
	URL      string
	Err      error
	Attempts int
}

func (f FetchFailure) String() string {
	return fmt.Sprintf("%s: %v (after %d attempts)", f.URL, f.Err, f.Attempts)
}

// CrawlReport is the full accounting of one crawl: every recovered page in
// listing order, every unrecoverable page, and the retry/backoff counters
// the resilience layer spent getting there.
type CrawlReport struct {
	// Pages are the successfully fetched and parsed match pages, in
	// listing order (failed pages leave no gap).
	Pages []*MatchPage
	// Failures lists pages lost after the retry budget. Empty on a clean
	// crawl; always empty in strict mode (failures abort instead).
	Failures []FetchFailure
	// Stats aggregates attempts, retries, backoff time and breaker
	// short-circuits across the listing and every page fetch.
	Stats resilience.Stats
}

// Degraded reports whether the crawl lost any page.
func (r *CrawlReport) Degraded() bool { return len(r.Failures) > 0 }

func (r *CrawlReport) String() string {
	return fmt.Sprintf("%d pages, %d failed (%d attempts, %d retries, %v backoff, %d short-circuits)",
		len(r.Pages), len(r.Failures), r.Stats.Attempts, r.Stats.Retries,
		r.Stats.Backoff.Round(time.Millisecond), r.Stats.ShortCircuits)
}

func (c *Crawler) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// fetchResilient fetches one URL under the full resilience stack: rate
// limiter, circuit breaker, retry policy with backoff. It returns the
// body, the attempt accounting, and the final error if the budget ran out
// or the failure was terminal.
func (c *Crawler) fetchResilient(ctx context.Context, client *http.Client, u string) (string, resilience.Stats, error) {
	met := c.metrics()
	fetchStart := time.Now()
	host := hostOf(u)
	var body string
	shortCircuits := 0
	st, err := c.Retry.Do(ctx, func() error {
		if c.Breaker != nil && !c.Breaker.Allow(host) {
			shortCircuits++
			return resilience.ErrOpen
		}
		if c.Limiter != nil {
			waitStart := time.Now()
			err := c.Limiter.Wait(ctx, host)
			met.limitWait.ObserveDuration(time.Since(waitStart))
			if err != nil {
				return err
			}
		}
		b, err := fetch(ctx, client, u, c.maxBody())
		if c.Breaker != nil {
			// Successes and transient failures shape the host's circuit;
			// terminal failures (a 404, an oversized body) say nothing
			// about the host's health and are not counted against it.
			if err == nil || resilience.Classify(err) == resilience.Retryable {
				c.Breaker.Report(host, err)
			}
		}
		if err == nil {
			body = b
		}
		return err
	})
	st.ShortCircuits = shortCircuits
	met.attempts.Add(uint64(st.Attempts))
	met.retries.Add(uint64(st.Retries))
	met.breaker.Add(uint64(shortCircuits))
	if err != nil {
		met.failures.Inc()
	}
	met.fetch.ObserveDuration(time.Since(fetchStart))
	return body, st, err
}

// Crawl fetches baseURL's /matches listing and every match page it links,
// returning parsed pages in listing order inside a CrawlReport. A listing
// failure or a done context aborts the crawl; per-page failures are
// retried under the policy and then either recorded in the report
// (default) or, in strict mode, abort the crawl as every failure once did.
func (c *Crawler) Crawl(ctx context.Context, baseURL string) (*CrawlReport, error) {
	client := c.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	conc := c.Concurrency
	if conc <= 0 {
		conc = 4
	}

	rep := &CrawlReport{}
	listing, st, err := c.fetchResilient(ctx, client, strings.TrimSuffix(baseURL, "/")+"/matches")
	rep.Stats.Add(st)
	if err != nil {
		return nil, fmt.Errorf("crawler: listing: %w", err)
	}
	links := ExtractLinks(listing)
	var matchURLs []string
	for _, l := range links {
		if strings.Contains(l, "/match/") {
			abs, err := resolveURL(baseURL, l)
			if err != nil {
				if c.Strict {
					return nil, fmt.Errorf("crawler: bad link %q: %w", l, err)
				}
				rep.Failures = append(rep.Failures, FetchFailure{URL: l, Err: err, Attempts: 0})
				continue
			}
			matchURLs = append(matchURLs, abs)
		}
	}

	type result struct {
		page  *MatchPage
		err   error
		stats resilience.Stats
	}
	results := make([]result, len(matchURLs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	for i, u := range matchURLs {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body, st, err := c.fetchResilient(ctx, client, u)
			results[i].stats = st
			if err != nil {
				results[i].err = fmt.Errorf("fetch %s: %w", u, err)
				return
			}
			page, err := ParseMatchPage(body)
			if err != nil {
				// A page that fetched but won't parse is terminal: the
				// origin is serving garbage and retrying re-fetches the
				// same garbage.
				results[i].err = fmt.Errorf("parse %s: %w", u, resilience.Permanent(err))
				return
			}
			results[i].page = page
		}(i, u)
	}
	wg.Wait()

	for i, r := range results {
		rep.Stats.Add(r.stats)
		switch {
		case r.err != nil && c.Strict:
			return nil, fmt.Errorf("crawler: %w", r.err)
		case r.err != nil:
			rep.Failures = append(rep.Failures, FetchFailure{
				URL: matchURLs[i], Err: r.err, Attempts: r.stats.Attempts,
			})
		default:
			rep.Pages = append(rep.Pages, r.page)
		}
	}
	// A crawl cut off by the caller's context is an abort, not a
	// degradation — the report would undercount arbitrarily.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	c.metrics().pages.Add(uint64(len(rep.Pages)))
	return rep, nil
}

// hostOf keys the limiter and breaker; an unparsable URL keys on itself so
// its failures cannot poison a real host's circuit.
func hostOf(u string) string {
	parsed, err := url.Parse(u)
	if err != nil || parsed.Host == "" {
		return u
	}
	return parsed.Host
}

// fetch performs one GET. Non-200 statuses become resilience.HTTPError
// (classified by code), and a body exceeding maxBytes is a terminal error:
// a clipped page must never be silently indexed as a corrupt one.
func fetch(ctx context.Context, client *http.Client, u string, maxBytes int64) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &resilience.HTTPError{StatusCode: resp.StatusCode, Status: resp.Status}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
	if err != nil {
		return "", err
	}
	if int64(len(body)) > maxBytes {
		return "", resilience.Permanent(fmt.Errorf("body exceeds %d byte limit", maxBytes))
	}
	return string(body), nil
}

// ExtractLinks returns the href targets of every anchor in the HTML, in
// document order with duplicates removed. Both double- and single-quoted
// attribute values are understood; an unterminated quote ends the scan
// rather than swallowing the rest of the document as one link.
func ExtractLinks(htmlSrc string) []string {
	var out []string
	seen := map[string]bool{}
	rest := htmlSrc
	for {
		i := strings.Index(rest, `href=`)
		if i < 0 {
			break
		}
		rest = rest[i+len(`href=`):]
		if rest == "" {
			break
		}
		quote := rest[0]
		if quote != '"' && quote != '\'' {
			continue
		}
		rest = rest[1:]
		j := strings.IndexByte(rest, quote)
		if j < 0 {
			break
		}
		href := rest[:j]
		rest = rest[j+1:]
		if href != "" && !seen[href] {
			seen[href] = true
			out = append(out, href)
		}
	}
	return out
}

func resolveURL(base, ref string) (string, error) {
	b, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	r, err := url.Parse(ref)
	if err != nil {
		return "", err
	}
	return b.ResolveReference(r).String(), nil
}
