package resilience

import (
	"context"
	"sync"
	"time"
)

// Limiter is a per-host token bucket: each host refills at Rate tokens per
// second up to Burst, and every request costs one token. Wait blocks until
// a token is available or the context ends. It keeps a polite crawler from
// hammering one origin while still allowing short bursts.
//
// The zero value is not usable; construct with NewLimiter. Safe for
// concurrent use.
type Limiter struct {
	rate  float64
	burst float64
	now   func() time.Time // time.Now; tests set a fake clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter refilling rate tokens/second (values <= 0
// mean unlimited) with the given burst capacity (values < 1 mean 1).
func NewLimiter(rate float64, burst int) *Limiter {
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: rate, burst: float64(burst), now: time.Now, buckets: map[string]*bucket{}}
}

// reserve takes one token from host's bucket, returning how long the
// caller must wait before acting on it.
func (l *Limiter) reserve(host string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		return 0
	}
	now := l.now()
	b := l.buckets[host]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[host] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	// The bucket is in debt: the wait is the time to refill it back to zero.
	return time.Duration(-b.tokens / l.rate * float64(time.Second))
}

// Wait blocks until host may make one request. A cancelled context returns
// its error; the token stays spent (the debt keeps later callers honest).
func (l *Limiter) Wait(ctx context.Context, host string) error {
	d := l.reserve(host)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
