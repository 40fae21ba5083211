package qcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGetPutRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	c := New(1<<20, 4, r)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", "v", 100, 1)
	v, ok := c.Get("k", 1)
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if got := r.Counter(MetricHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := r.Counter(MetricMisses).Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if c.Len() != 1 || c.Bytes() != 100 {
		t.Errorf("len/bytes = %d/%d, want 1/100", c.Len(), c.Bytes())
	}
}

func TestEpochInvalidation(t *testing.T) {
	r := obs.NewRegistry()
	c := New(1<<20, 1, r)
	c.Put("k", "old", 10, 1)
	// The same key at a newer epoch must miss, and the stale entry is gone.
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stale entry served across an epoch bump")
	}
	if got := r.Counter(MetricInvalidations).Value(); got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
	if c.Len() != 0 {
		t.Errorf("stale entry still resident: len = %d", c.Len())
	}
	// A lookup at the old epoch must not resurrect it either.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("removed entry reappeared")
	}
}

func TestByteCapacityEviction(t *testing.T) {
	r := obs.NewRegistry()
	// One segment capped at 100 bytes: four 30-byte entries force evictions
	// in LRU order.
	c := New(100, 1, r)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 30, 1)
	}
	c.Get("k0", 1) // touch k0 so k1 is now least-recent
	c.Put("k3", 3, 30, 1)
	if _, ok := c.Get("k1", 1); ok {
		t.Error("LRU entry k1 survived over-capacity insert")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k, 1); !ok {
			t.Errorf("entry %s evicted out of LRU order", k)
		}
	}
	if got := r.Counter(MetricEvictions).Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Bytes() > 100 {
		t.Errorf("resident bytes %d exceed capacity", c.Bytes())
	}
	// An entry larger than a whole segment is refused outright.
	c.Put("huge", 0, 1000, 1)
	if _, ok := c.Get("huge", 1); ok {
		t.Error("oversized entry admitted")
	}
}

func TestReplaceAdjustsAccounting(t *testing.T) {
	c := New(1<<20, 1, nil)
	c.Put("k", "a", 40, 1)
	c.Put("k", "b", 10, 2)
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("len/bytes after replace = %d/%d, want 1/10", c.Len(), c.Bytes())
	}
	if v, ok := c.Get("k", 2); !ok || v.(string) != "b" {
		t.Fatalf("Get after replace = %v, %v", v, ok)
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	c.Put("k", "v", 1, 1)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache accounts bytes")
	}
	if New(0, 4, nil) != nil {
		t.Fatal("New(0) built a cache")
	}
}

// TestConcurrentCache hammers Get/Put from many goroutines — the
// race detector is the real assertion, plus capacity holds throughout.
func TestConcurrentCache(t *testing.T) {
	c := New(4096, 4, obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				c.Put(k, i, 64, uint64(i%3))
				c.Get(k, uint64(i%3))
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 4096 {
		t.Errorf("resident bytes %d exceed capacity", c.Bytes())
	}
}

// TestGroupCoalesces: N concurrent callers on one key run fn exactly once
// and all observe the same value.
func TestGroupCoalesces(t *testing.T) {
	r := obs.NewRegistry()
	g := NewGroup(r)
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]any, n)
	leaders := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, leader, err := g.Do(context.Background(), "q", func() any {
				calls.Add(1)
				<-release // hold the flight open until every caller joined
				return "answer"
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			vals[i], leaders[i] = v, leader
		}(i)
	}
	// Wait until all non-leaders are parked on the flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for r.Counter(MetricCoalesced).Value() < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	nLeaders := 0
	for i := range vals {
		if vals[i].(string) != "answer" {
			t.Errorf("caller %d got %v", i, vals[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Errorf("%d leaders, want 1", nLeaders)
	}
	if got := r.Counter(MetricCoalesced).Value(); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
}

// TestGroupSequentialCallsDoNotShare: flights are cleared on completion,
// so non-overlapping calls each run fn.
func TestGroupSequentialCallsDoNotShare(t *testing.T) {
	g := NewGroup(nil)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, leader, err := g.Do(context.Background(), "q", func() any {
			return calls.Add(1)
		})
		if err != nil || !leader {
			t.Fatalf("call %d: leader=%v err=%v", i, leader, err)
		}
		if v.(int64) != int64(i+1) {
			t.Fatalf("call %d returned %v", i, v)
		}
	}
}

// TestGroupFollowerTimeout: a follower whose context expires mid-flight
// gets the context error while the leader completes normally.
func TestGroupFollowerTimeout(t *testing.T) {
	g := NewGroup(nil)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "q", func() any {
			close(started)
			<-release
			return "late"
		})
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := g.Do(ctx, "q", func() any { return "never" }); err != context.DeadlineExceeded {
		t.Errorf("follower err = %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v", err)
	}
}

// TestNilGroupRunsDirectly: a nil group degrades to calling fn.
func TestNilGroupRunsDirectly(t *testing.T) {
	var g *Group
	v, leader, err := g.Do(context.Background(), "q", func() any { return 7 })
	if err != nil || !leader || v.(int) != 7 {
		t.Fatalf("nil group Do = %v %v %v", v, leader, err)
	}
}
