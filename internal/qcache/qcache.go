// Package qcache is the query-result cache behind the engine's hot path:
// a dependency-free, concurrency-safe LRU keyed on the normalized query
// shape, sharded into independently-locked segments so concurrent
// lookups on different keys never contend, with byte-capacity accounting
// so the cache is bounded by memory, not entry count.
//
// Correctness is carried by epoch validation, not TTLs: every entry
// stores the engine epoch it was computed under, and Get only returns an
// entry whose epoch matches the caller's current one. An ingest (or any
// statistics exchange) bumps the epoch, so a cached answer is never
// served across a ranking change — stale entries are evicted lazily on
// their next lookup.
//
// The companion Group is a singleflight layer: N concurrent identical
// queries trigger one underlying computation and share the result, which
// flattens request spikes on popular queries ("thundering herd") into a
// single scatter-gather.
package qcache

import (
	"container/list"
	"hash/fnv"
	"sync"

	"repro/internal/obs"
)

// Metric names the cache publishes. Exported so harnesses (the benchmark
// module) and dashboards can read them off a registry without importing
// internals.
const (
	MetricHits          = "qcache_hits_total"
	MetricMisses        = "qcache_misses_total"
	MetricCoalesced     = "qcache_coalesced_total"
	MetricEvictions     = "qcache_evictions_total"
	MetricInvalidations = "qcache_invalidations_total"
	MetricBytes         = "qcache_bytes"
	MetricEntries       = "qcache_entries"
)

// DefaultSegments is the segment count when New is given 0: enough to
// make lock contention invisible at typical serving parallelism without
// fragmenting the byte budget.
const DefaultSegments = 16

// entry is one cached value with its accounting and validity metadata.
type entry struct {
	key   string
	val   any
	bytes int64
	epoch uint64
}

// segment is one independently-locked LRU over a slice of the key space.
type segment struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	byKey map[string]*list.Element
	bytes int64
	cap   int64
}

// metrics holds the cache's resolved handles; all tolerate nil.
type metrics struct {
	hits          *obs.Counter
	misses        *obs.Counter
	evictions     *obs.Counter
	invalidations *obs.Counter
	bytes         *obs.Gauge
	entries       *obs.Gauge
}

// Cache is the sharded LRU. All methods are safe for concurrent use, and
// a nil *Cache is a valid no-op cache (Get always misses, Put discards),
// so "caching off" is expressed by wiring nil.
type Cache struct {
	segs []*segment
	met  metrics
}

// New builds a cache bounded at maxBytes across `segments` LRU segments
// (0 means DefaultSegments), registering its series in r (nil r disables
// instrumentation). maxBytes <= 0 returns nil — the no-op cache.
func New(maxBytes int64, segments int, r *obs.Registry) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	if segments <= 0 {
		segments = DefaultSegments
	}
	r.Help(MetricHits, "Query-cache lookups served from a valid entry.")
	r.Help(MetricMisses, "Query-cache lookups that found no valid entry.")
	r.Help(MetricEvictions, "Entries evicted by the byte-capacity LRU.")
	r.Help(MetricInvalidations, "Entries dropped because their epoch went stale.")
	r.Help(MetricBytes, "Estimated bytes resident in the query cache.")
	r.Help(MetricEntries, "Entries resident in the query cache.")
	c := &Cache{
		segs: make([]*segment, segments),
		met: metrics{
			hits:          r.Counter(MetricHits),
			misses:        r.Counter(MetricMisses),
			evictions:     r.Counter(MetricEvictions),
			invalidations: r.Counter(MetricInvalidations),
			bytes:         r.Gauge(MetricBytes),
			entries:       r.Gauge(MetricEntries),
		},
	}
	per := maxBytes / int64(segments)
	if per < 1 {
		per = 1
	}
	for i := range c.segs {
		c.segs[i] = &segment{lru: list.New(), byKey: map[string]*list.Element{}, cap: per}
	}
	return c
}

// seg picks the segment owning a key by stable hash.
func (c *Cache) seg(key string) *segment {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.segs[h.Sum32()%uint32(len(c.segs))]
}

// Get returns the entry for key if it exists and was stored under the
// given epoch. An entry from another epoch is removed on the spot (lazy
// invalidation) and reported as a miss.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.seg(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		c.met.misses.Inc()
		return nil, false
	}
	ent := el.Value.(*entry)
	if ent.epoch != epoch {
		s.remove(el, ent, &c.met)
		s.mu.Unlock()
		c.met.invalidations.Inc()
		c.met.misses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(el)
	// Capture the value under the lock: a concurrent Put replacing this
	// key mutates the entry in place.
	val := ent.val
	s.mu.Unlock()
	c.met.hits.Inc()
	return val, true
}

// Put stores (or replaces) the entry for key, charging `bytes` against
// the owning segment's capacity and evicting from the LRU tail until the
// segment fits. A value larger than a whole segment is not admitted.
func (c *Cache) Put(key string, val any, bytes int64, epoch uint64) {
	if c == nil {
		return
	}
	s := c.seg(key)
	if bytes > s.cap {
		return
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		ent := el.Value.(*entry)
		s.bytes += bytes - ent.bytes
		c.met.bytes.Add(float64(bytes - ent.bytes))
		ent.val, ent.bytes, ent.epoch = val, bytes, epoch
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&entry{key: key, val: val, bytes: bytes, epoch: epoch})
		s.byKey[key] = el
		s.bytes += bytes
		c.met.bytes.Add(float64(bytes))
		c.met.entries.Inc()
	}
	for s.bytes > s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.remove(back, back.Value.(*entry), &c.met)
		c.met.evictions.Inc()
	}
	s.mu.Unlock()
}

// remove unlinks an entry and settles the accounting. Segment lock held.
func (s *segment) remove(el *list.Element, ent *entry, met *metrics) {
	s.lru.Remove(el)
	delete(s.byKey, ent.key)
	s.bytes -= ent.bytes
	met.bytes.Add(-float64(ent.bytes))
	met.entries.Dec()
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.segs {
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}
