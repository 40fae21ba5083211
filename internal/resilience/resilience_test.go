package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"500", &HTTPError{StatusCode: 500, Status: "500 Internal Server Error"}, Retryable},
		{"503", &HTTPError{StatusCode: 503, Status: "503 Service Unavailable"}, Retryable},
		{"429", &HTTPError{StatusCode: 429, Status: "429 Too Many Requests"}, Retryable},
		{"408", &HTTPError{StatusCode: 408, Status: "408 Request Timeout"}, Retryable},
		{"404", &HTTPError{StatusCode: 404, Status: "404 Not Found"}, Terminal},
		{"400", &HTTPError{StatusCode: 400, Status: "400 Bad Request"}, Terminal},
		{"wrapped 404", fmt.Errorf("fetch: %w", &HTTPError{StatusCode: 404, Status: "404"}), Terminal},
		{"permanent", Permanent(errors.New("parse failed")), Terminal},
		{"wrapped permanent", fmt.Errorf("x: %w", Permanent(errors.New("truncated"))), Terminal},
		{"canceled", context.Canceled, Terminal},
		{"deadline", context.DeadlineExceeded, Terminal},
		{"conn reset", syscall.ECONNRESET, Retryable},
		{"conn refused", syscall.ECONNREFUSED, Retryable},
		{"unexpected EOF", io.ErrUnexpectedEOF, Retryable},
		{"unknown", errors.New("mystery"), Retryable},
		{"breaker open", ErrOpen, Retryable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Classify(c.err); got != c.want {
				t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
			}
		})
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestBackoffBoundsAndGrowth(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	ceils := []time.Duration{10, 20, 40, 80, 80, 80} // ms, capped at MaxDelay
	for attempt := 1; attempt <= len(ceils); attempt++ {
		ceil := ceils[attempt-1] * time.Millisecond
		for i := 0; i < 50; i++ {
			d := p.Backoff(attempt)
			if d <= 0 || d > ceil {
				t.Fatalf("Backoff(%d) = %v, want (0, %v]", attempt, d, ceil)
			}
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var p Policy // zero BaseDelay/MaxDelay must still produce sane delays
	for attempt := 1; attempt < 10; attempt++ {
		d := p.Backoff(attempt)
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("zero-policy Backoff(%d) = %v", attempt, d)
		}
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	p := Policy{MaxRetries: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	calls := 0
	st, err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return &HTTPError{StatusCode: 500, Status: "500"}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("calls=%d stats=%+v", calls, st)
	}
	if st.Backoff <= 0 {
		t.Error("no backoff recorded")
	}
}

func TestDoStopsAtTerminal(t *testing.T) {
	p := Policy{MaxRetries: 5, BaseDelay: time.Millisecond}
	calls := 0
	_, err := p.Do(context.Background(), func() error {
		calls++
		return &HTTPError{StatusCode: 404, Status: "404"}
	})
	if err == nil || calls != 1 {
		t.Errorf("terminal error retried: calls=%d err=%v", calls, err)
	}
}

func TestDoZeroValueMeansNoRetries(t *testing.T) {
	var p Policy
	calls := 0
	_, err := p.Do(context.Background(), func() error {
		calls++
		return &HTTPError{StatusCode: 500, Status: "500"}
	})
	if calls != 1 {
		t.Errorf("zero-value policy made %d attempts, want 1", calls)
	}
	if err == nil {
		t.Error("failure swallowed")
	}
}

func TestDoExhaustionMentionsAttempts(t *testing.T) {
	p := Policy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err := p.Do(context.Background(), func() error {
		return &HTTPError{StatusCode: 503, Status: "503"}
	})
	if err == nil || !errors.As(err, new(*HTTPError)) {
		t.Fatalf("err = %v", err)
	}
	if want := "after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Errorf("err %q does not contain %q", err, want)
	}
}

func TestDoRespectsContext(t *testing.T) {
	p := Policy{MaxRetries: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := p.Do(ctx, func() error { return &HTTPError{StatusCode: 500, Status: "500"} })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("cancelled Do took %v", time.Since(start))
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	fail := errors.New("boom")
	for i := 0; i < 3; i++ {
		if !b.Allow("h") {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.Report("h", fail)
	}
	if b.State("h") != "open" {
		t.Fatalf("state after threshold = %s", b.State("h"))
	}
	if b.Allow("h") {
		t.Error("open breaker admitted a request before cooldown")
	}
}

func TestBreakerHalfOpenProbing(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	now := time.Unix(1000, 0)
	b.SetClock(func() time.Time { return now })
	fail := errors.New("boom")
	b.Report("h", fail)
	b.Report("h", fail)
	if b.Allow("h") {
		t.Fatal("open breaker admitted a request")
	}
	// Cross the cooldown: exactly one probe is admitted.
	now = now.Add(2 * time.Minute)
	if !b.Allow("h") {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.Allow("h") {
		t.Error("half-open breaker admitted a second concurrent probe")
	}
	// A failed probe re-opens for another full cooldown.
	b.Report("h", fail)
	if b.State("h") != "open" || b.Allow("h") {
		t.Fatalf("failed probe did not re-open: state=%s", b.State("h"))
	}
	// After another cooldown a successful probe closes the circuit.
	now = now.Add(2 * time.Minute)
	if !b.Allow("h") {
		t.Fatal("second probe denied")
	}
	b.Report("h", nil)
	if b.State("h") != "closed" {
		t.Fatalf("state after successful probe = %s", b.State("h"))
	}
	if !b.Allow("h") || !b.Allow("h") {
		t.Error("closed breaker throttled requests")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	fail := errors.New("boom")
	b.Report("h", fail)
	b.Report("h", fail)
	b.Report("h", nil) // success wipes the streak
	b.Report("h", fail)
	b.Report("h", fail)
	if b.State("h") != "closed" {
		t.Errorf("non-consecutive failures opened the breaker: %s", b.State("h"))
	}
}

func TestBreakerIsolatesHosts(t *testing.T) {
	b := NewBreaker(1, time.Minute)
	b.Report("down", errors.New("boom"))
	if b.Allow("down") {
		t.Error("failing host not blocked")
	}
	if !b.Allow("up") {
		t.Error("healthy host blocked by another host's circuit")
	}
}

func TestLimiterBurstThenThrottle(t *testing.T) {
	l := NewLimiter(10, 2) // 10/s, burst 2
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	if l.reserve("h") != 0 || l.reserve("h") != 0 {
		t.Fatal("burst made to wait")
	}
	now = now.Add(100 * time.Millisecond) // refills exactly one token
	if d := l.reserve("h"); d != 0 {
		t.Errorf("refilled token waits %v", d)
	}
	if d := l.reserve("h"); d != time.Second/10 {
		t.Errorf("over-burst request waits %v, want 1/rate = 100ms", d)
	}
}

func TestLimiterWaitBlocksAndHonorsContext(t *testing.T) {
	l := NewLimiter(1000, 1)
	if err := l.Wait(context.Background(), "h"); err != nil {
		t.Fatal(err)
	}
	// Second request must wait ~1ms for a refill — small enough to sleep for.
	start := time.Now()
	if err := l.Wait(context.Background(), "h"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) <= 0 {
		t.Error("second Wait did not block at all")
	}
	// A cancelled context aborts a long wait promptly.
	slow := NewLimiter(0.001, 1)
	slow.reserve("h")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := slow.Wait(ctx, "h"); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait on cancelled ctx = %v", err)
	}
}

func TestLimiterUnlimited(t *testing.T) {
	l := NewLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if d := l.reserve("h"); d != 0 {
			t.Fatalf("unlimited limiter waits %v", d)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Attempts: 2, Retries: 1, Backoff: time.Second, ShortCircuits: 1}
	a.Add(Stats{Attempts: 3, Retries: 2, Backoff: time.Second, ShortCircuits: 2})
	want := Stats{Attempts: 5, Retries: 3, Backoff: 2 * time.Second, ShortCircuits: 3}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
