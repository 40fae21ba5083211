package crawler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/soccer"
)

func testCorpus(t testing.TB) *soccer.Corpus {
	t.Helper()
	return soccer.Generate(soccer.Config{Matches: 3, Seed: 7, NarrationsPerMatch: 40})
}

// fastRetry is a test retry policy: generous budget, negligible delays.
func fastRetry(maxRetries int) resilience.Policy {
	return resilience.Policy{MaxRetries: maxRetries, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestPageRoundTrip(t *testing.T) {
	c := testCorpus(t)
	m := c.Matches[0]
	page, err := ParseMatchPage(RenderMatchPage(m))
	if err != nil {
		t.Fatalf("ParseMatchPage: %v", err)
	}
	if page.ID != m.ID || page.Home != m.Home.Name || page.Away != m.Away.Name {
		t.Errorf("header mismatch: %+v", page)
	}
	if page.HomeScore != m.HomeScore || page.AwayScore != m.AwayScore {
		t.Errorf("score mismatch: %d-%d vs %d-%d", page.HomeScore, page.AwayScore, m.HomeScore, m.AwayScore)
	}
	if page.Date != m.Date || page.Referee != m.Referee || page.Stadium != m.Home.Stadium {
		t.Errorf("meta mismatch: %+v", page)
	}
	if len(page.Lineups[m.Home.Name]) != 11 || len(page.Lineups[m.Away.Name]) != 11 {
		t.Errorf("lineups: %d home, %d away", len(page.Lineups[m.Home.Name]), len(page.Lineups[m.Away.Name]))
	}
	if page.Coaches[m.Home.Name] != m.Home.Coach {
		t.Errorf("coach = %q", page.Coaches[m.Home.Name])
	}
	for i, p := range m.Home.Players {
		got := page.Lineups[m.Home.Name][i]
		want := PlayerLine{Name: p.Name, Short: p.Short, Position: p.Position, Shirt: p.Shirt}
		if got != want {
			t.Errorf("player %d = %+v, want %+v", i, got, want)
		}
	}
	if len(page.Goals) != len(m.Goals) {
		t.Fatalf("goals = %d, want %d", len(page.Goals), len(m.Goals))
	}
	for i, g := range m.Goals {
		got := page.Goals[i]
		if got.Minute != g.Minute || got.Scorer != g.Scorer.Short || got.Team != g.Team.Name || got.OwnGoal != g.OwnGoal {
			t.Errorf("goal %d = %+v", i, got)
		}
	}
	if len(page.Subs) != len(m.Substitutions) {
		t.Errorf("subs = %d, want %d", len(page.Subs), len(m.Substitutions))
	}
	if len(page.Narrations) != len(m.Narrations) {
		t.Fatalf("narrations = %d, want %d", len(page.Narrations), len(m.Narrations))
	}
	for i, n := range m.Narrations {
		if page.Narrations[i].Text != n.Text || page.Narrations[i].Minute != n.Minute {
			t.Errorf("narration %d = %+v, want %+v", i, page.Narrations[i], n)
		}
	}
}

func TestPageEscaping(t *testing.T) {
	// Names with apostrophes (Eto'o, O'Shea) and narration punctuation must
	// survive the HTML round trip.
	c := soccer.Generate(soccer.Config{Matches: 10, Seed: 1, NarrationsPerMatch: 60})
	for _, m := range c.Matches {
		page, err := ParseMatchPage(RenderMatchPage(m))
		if err != nil {
			t.Fatalf("match %s: %v", m.ID, err)
		}
		for i, n := range m.Narrations {
			if page.Narrations[i].Text != n.Text {
				t.Fatalf("match %s narration %d: %q != %q", m.ID, i, page.Narrations[i].Text, n.Text)
			}
		}
	}
}

func TestParseMatchPageErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no header", "<html><body></body></html>"},
		{"bad score", `<h1 class="match" data-id="x" data-home-score="NaN" data-away-score="0"></h1>`},
		{"bad minute", `<h1 class="match" data-id="x" data-home-score="0" data-away-score="0"></h1>` + "\n" +
			`<li class="narration" data-minute="soon">text</li>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseMatchPage(c.src); err == nil {
				t.Error("ParseMatchPage accepted malformed page")
			}
		})
	}
}

func TestExtractLinks(t *testing.T) {
	html := `<a href="/match/a">A</a> <a href="/match/b">B</a> <a href="/match/a">dup</a> <a href="http://x/y">ext</a>`
	got := ExtractLinks(html)
	want := []string{"/match/a", "/match/b", "http://x/y"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractLinks = %v", got)
	}
}

// TestExtractLinksEdgeCases: malformed markup from a hostile or broken
// origin must degrade gracefully, never panic or mis-extract.
func TestExtractLinksEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"empty input", "", nil},
		{"no links", "<p>plain text</p>", nil},
		{"unterminated quote", `<a href="/match/a`, nil},
		{"unterminated after good link", `<a href="/a">x</a><a href="/b`, []string{"/a"}},
		{"empty href", `<a href="">x</a><a href="/a">y</a>`, []string{"/a"}},
		{"duplicates collapse", `<a href="/a"></a><a href="/a"></a><a href="/a"></a>`, []string{"/a"}},
		{"single-quoted", `<a href='/match/a'>A</a> <a href='/b'>B</a>`, []string{"/match/a", "/b"}},
		{"mixed quoting", `<a href='/a'>x</a><a href="/b">y</a>`, []string{"/a", "/b"}},
		{"double quote inside single-quoted value", `<a href='/a"b'>x</a>`, []string{`/a"b`}},
		{"unquoted value skipped", `<a href=/a>x</a><a href="/b">y</a>`, []string{"/b"}},
		{"href at end of input", `<a href=`, nil},
		{"bare href", `href`, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := ExtractLinks(c.src)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("ExtractLinks(%q) = %v, want %v", c.src, got, c.want)
			}
		})
	}
}

func TestCrawlEndToEnd(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	rep, err := (&Crawler{}).Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if rep.Degraded() {
		t.Fatalf("clean crawl degraded: %v", rep.Failures)
	}
	if len(rep.Pages) != len(c.Matches) {
		t.Fatalf("crawled %d pages, want %d", len(rep.Pages), len(c.Matches))
	}
	for i, m := range c.Matches {
		if rep.Pages[i].ID != m.ID {
			t.Errorf("page %d id = %q, want %q", i, rep.Pages[i].ID, m.ID)
		}
	}
	// 1 listing + N pages, no retries.
	if want := len(c.Matches) + 1; rep.Stats.Attempts != want || rep.Stats.Retries != 0 {
		t.Errorf("stats = %+v, want %d attempts, 0 retries", rep.Stats, want)
	}
}

func TestCrawlRootRedirect(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	// The crawler appends /matches itself; fetching the root should also
	// work through the redirect for humans pointing a browser at it.
	rep, err := (&Crawler{Concurrency: 1}).Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl with trailing slash: %v", err)
	}
	if len(rep.Pages) != len(c.Matches) {
		t.Errorf("crawled %d pages", len(rep.Pages))
	}
}

func TestCrawlUnknownHost(t *testing.T) {
	_, err := (&Crawler{}).Crawl(context.Background(), "http://127.0.0.1:1")
	if err == nil {
		t.Error("Crawl of dead endpoint succeeded")
	}
}

func TestCrawl404Page(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	// A direct fetch of a missing match must 404, classified terminal.
	body, err := fetch(context.Background(), srv.Client(), srv.URL+"/match/nope", DefaultMaxBodyBytes)
	if err == nil {
		t.Fatalf("missing match fetched: %q", body[:40])
	}
	if resilience.Classify(err) != resilience.Terminal {
		t.Errorf("404 classified %v, want terminal", resilience.Classify(err))
	}
}

func TestCrawlSurvivesFlakyServer(t *testing.T) {
	// The server fails every first request per URL with a 500; retries must
	// carry the crawl through.
	c := testCorpus(t)
	inner := NewServer(c)
	var mu sync.Mutex
	failed := map[string]bool{}
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !failed[r.URL.Path]
		failed[r.URL.Path] = true
		mu.Unlock()
		if first {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	rep, err := (&Crawler{Retry: fastRetry(2)}).Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Crawl with retries: %v", err)
	}
	if len(rep.Pages) != len(c.Matches) {
		t.Errorf("crawled %d pages, want %d", len(rep.Pages), len(c.Matches))
	}
	if rep.Stats.Retries == 0 {
		t.Error("report shows no retries despite a flaky server")
	}
}

// TestNoRetriesIsExpressible: the zero-value crawler really makes a single
// attempt per URL — the old "0 silently means 2" trap is gone.
func TestNoRetriesIsExpressible(t *testing.T) {
	var requests atomic.Int64
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer always.Close()
	_, err := (&Crawler{}).Crawl(context.Background(), always.URL)
	if err == nil {
		t.Fatal("crawl of failing server succeeded")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("zero-value crawler made %d requests to the listing, want exactly 1", n)
	}
}

// TestTerminalErrorsNotRetried: 4xx pages burn one attempt, not the whole
// retry budget.
func TestTerminalErrorsNotRetried(t *testing.T) {
	c := testCorpus(t)
	inner := NewServer(c)
	var matchRequests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/match/") {
			matchRequests.Add(1)
			http.Error(w, "gone", http.StatusGone)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rep, err := (&Crawler{Retry: fastRetry(5)}).Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(rep.Failures) != len(c.Matches) || len(rep.Pages) != 0 {
		t.Fatalf("report: %d pages, %d failures", len(rep.Pages), len(rep.Failures))
	}
	if n := matchRequests.Load(); n != int64(len(c.Matches)) {
		t.Errorf("match pages requested %d times, want %d (no retries of terminal 410s)", n, len(c.Matches))
	}
}

// TestParseFailuresNotRetried: a page that fetches but does not parse is
// terminal — the crawler must not re-download garbage.
func TestParseFailuresNotRetried(t *testing.T) {
	var matchRequests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/matches":
			writeHTML(w, `<a href="/match/x">x</a>`)
		default:
			matchRequests.Add(1)
			writeHTML(w, "<html><body>not a match page</body></html>")
		}
	}))
	defer srv.Close()
	rep, err := (&Crawler{Retry: fastRetry(5)}).Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %v", rep.Failures)
	}
	if n := matchRequests.Load(); n != 1 {
		t.Errorf("unparseable page fetched %d times, want 1", n)
	}
}

// TestCrawlDegradesInsteadOfAborting: one permanently broken page no
// longer costs the other pages; strict mode restores the old contract.
func TestCrawlDegradesInsteadOfAborting(t *testing.T) {
	c := testCorpus(t)
	inner := NewServer(c)
	broken := "/match/" + c.Matches[1].ID
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == broken {
			http.Error(w, "hopeless", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rep, err := (&Crawler{Retry: fastRetry(1)}).Crawl(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("degraded crawl errored: %v", err)
	}
	if !rep.Degraded() || len(rep.Failures) != 1 || len(rep.Pages) != len(c.Matches)-1 {
		t.Fatalf("report = %s", rep)
	}
	if !strings.Contains(rep.Failures[0].URL, broken) {
		t.Errorf("failure URL = %q, want suffix %q", rep.Failures[0].URL, broken)
	}
	if rep.Failures[0].Attempts != 2 {
		t.Errorf("failure attempts = %d, want 2", rep.Failures[0].Attempts)
	}

	// Strict mode: the same site aborts the whole crawl.
	if _, err := (&Crawler{Retry: fastRetry(1), Strict: true}).Crawl(context.Background(), srv.URL); err == nil {
		t.Error("strict crawl of broken site succeeded")
	}
}

// TestCrawlDeterministicFaultRecovery is the fault-injection acceptance
// test: under seeded drops and 500s the hardened crawler recovers the
// identical page set a fault-free crawl yields, and the report shows the
// retries it took. In strict mode with no retry budget the same fault
// schedule aborts, as every fault once did.
func TestCrawlDeterministicFaultRecovery(t *testing.T) {
	c := testCorpus(t)
	cfg := FaultConfig{Seed: 42, DropRate: 0.2, ErrorRate: 0.1}

	clean := httptest.NewServer(NewServer(c))
	defer clean.Close()
	want, err := (&Crawler{}).Crawl(context.Background(), clean.URL)
	if err != nil {
		t.Fatalf("fault-free crawl: %v", err)
	}

	faulty := httptest.NewServer(WithFaults(NewServer(c), cfg))
	defer faulty.Close()
	hardened := &Crawler{Retry: fastRetry(8), Breaker: resilience.NewBreaker(10, 10*time.Millisecond)}
	got, err := hardened.Crawl(context.Background(), faulty.URL)
	if err != nil {
		t.Fatalf("hardened crawl under faults: %v", err)
	}
	if got.Degraded() {
		t.Fatalf("hardened crawl lost pages: %v", got.Failures)
	}
	if len(got.Pages) != len(want.Pages) {
		t.Fatalf("recovered %d pages, want %d", len(got.Pages), len(want.Pages))
	}
	for i := range want.Pages {
		if !reflect.DeepEqual(got.Pages[i], want.Pages[i]) {
			t.Errorf("page %d differs between faulty and fault-free crawls", i)
		}
	}
	if got.Stats.Retries == 0 {
		t.Error("report records zero retries under a 30% fault rate")
	}

	// Strict mode, fresh identical fault schedule, no retry budget: abort.
	strictSrv := httptest.NewServer(WithFaults(NewServer(c), cfg))
	defer strictSrv.Close()
	if _, err := (&Crawler{Strict: true}).Crawl(context.Background(), strictSrv.URL); err == nil {
		t.Error("strict no-retry crawl survived the fault schedule")
	}
}

// TestCrawlerCircuitBreaker is the circuit-breaker acceptance test: a
// persistently failing host opens the breaker at the threshold, subsequent
// attempts short-circuit without touching the network, and a half-open
// probe closes the circuit once the fault clears.
func TestCrawlerCircuitBreaker(t *testing.T) {
	var requests atomic.Int64
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		writeHTML(w, "ok")
	}))
	defer srv.Close()

	breaker := resilience.NewBreaker(2, time.Minute)
	now := time.Unix(0, 0)
	var clockMu sync.Mutex
	breaker.SetClock(func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now })
	c := &Crawler{Retry: fastRetry(5), Breaker: breaker}

	_, st, err := c.fetchResilient(context.Background(), srv.Client(), srv.URL+"/x")
	if err == nil {
		t.Fatal("fetch from failing host succeeded")
	}
	// 6 attempts, but only 2 reach the network before the circuit opens.
	if n := requests.Load(); n != 2 {
		t.Fatalf("network saw %d requests, want 2 (breaker threshold)", n)
	}
	if st.ShortCircuits != 4 {
		t.Errorf("short-circuits = %d, want 4", st.ShortCircuits)
	}

	// Host recovers, but the circuit is still open: no network traffic.
	healthy.Store(true)
	if _, _, err := c.fetchResilient(context.Background(), srv.Client(), srv.URL+"/x"); err == nil {
		t.Fatal("open circuit let a request through")
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("open circuit leaked %d extra requests", n-2)
	}

	// Cooldown passes: the half-open probe succeeds and closes the circuit.
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	body, _, err := c.fetchResilient(context.Background(), srv.Client(), srv.URL+"/x")
	if err != nil || body != "ok" {
		t.Fatalf("probe after recovery: %q, %v", body, err)
	}
	if state := breaker.State(hostOf(srv.URL)); state != "closed" {
		t.Errorf("breaker state after successful probe = %s", state)
	}
}

// TestFetchRejectsOversizedBody: a body larger than the cap fails loudly
// instead of being silently clipped and indexed corrupt.
func TestFetchRejectsOversizedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeHTML(w, strings.Repeat("x", 2048))
	}))
	defer srv.Close()
	_, err := fetch(context.Background(), srv.Client(), srv.URL, 1024)
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if !strings.Contains(err.Error(), "exceeds 1024 byte limit") {
		t.Errorf("err = %v", err)
	}
	if resilience.Classify(err) != resilience.Terminal {
		t.Error("oversized body classified retryable")
	}
	// A body exactly at the cap is fine.
	if _, err := fetch(context.Background(), srv.Client(), srv.URL, 2048+int64(len("<html>"))+100); err != nil {
		t.Errorf("body under cap rejected: %v", err)
	}
}

func TestCrawlContextCancellation(t *testing.T) {
	// A cancelled context must abort retries promptly.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer always.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := (&Crawler{Retry: resilience.Policy{MaxRetries: 5, BaseDelay: time.Second}}).Crawl(ctx, always.URL)
	if err == nil {
		t.Fatal("cancelled crawl succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("cancelled crawl took %v", time.Since(start))
	}
}

func TestCrawlBadBaseURL(t *testing.T) {
	if _, err := (&Crawler{}).Crawl(context.Background(), "://not a url"); err == nil {
		t.Error("malformed base URL accepted")
	}
}

func TestNewCrawlerDefaults(t *testing.T) {
	c := New()
	if c.Retry.MaxRetries == 0 {
		t.Error("production crawler has no retry budget")
	}
	if c.Breaker == nil {
		t.Error("production crawler has no circuit breaker")
	}
	if c.Strict {
		t.Error("production crawler is strict by default")
	}
}

func TestServerListingContainsAllMatches(t *testing.T) {
	c := testCorpus(t)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	body, err := fetch(context.Background(), srv.Client(), srv.URL+"/matches", DefaultMaxBodyBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Matches {
		if !strings.Contains(body, m.ID) {
			t.Errorf("listing missing match %s", m.ID)
		}
	}
}
