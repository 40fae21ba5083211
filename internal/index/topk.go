package index

import (
	"math"
	"sync"
	"sync/atomic"
)

// Bounded top-k selection for the scoring kernel. A query that wants the
// best k of potentially every document must not sort the full hit set
// (the seed-era path); it keeps a k-element min-heap whose root is the
// weakest kept item, so each candidate costs O(1) when it loses and
// O(log k) when it wins. The heap is typed — no reflection-based
// sort.Slice on the hot path — and doubles as the final sorter: draining
// it heap-sorts the survivors best-first in place.

// bounded is a typed bounded min-heap keeping the k best items pushed so
// far under the given order; k <= 0 keeps everything. worse(a, b) reports
// that a ranks strictly below b, i.e. a would be evicted before b. The
// root is always the worst kept item.
type bounded[T any] struct {
	k     int
	worse func(a, b T) bool
	items []T
}

// push offers an item, evicting the current worst when full and beaten.
func (b *bounded[T]) push(x T) {
	if b.k <= 0 || len(b.items) < b.k {
		b.items = append(b.items, x)
		b.siftUp(len(b.items) - 1)
		return
	}
	if b.worse(b.items[0], x) {
		b.items[0] = x
		b.siftDown(0, len(b.items))
	}
}

// full reports whether the heap holds k items (never true when unbounded).
func (b *bounded[T]) full() bool { return b.k > 0 && len(b.items) >= b.k }

// root returns the worst kept item. Only valid when non-empty.
func (b *bounded[T]) root() T { return b.items[0] }

// sorted heap-sorts the kept items best-first in place and returns the
// backing slice. The heap is consumed; push must not be called after.
func (b *bounded[T]) sorted() []T {
	for end := len(b.items) - 1; end > 0; end-- {
		b.items[0], b.items[end] = b.items[end], b.items[0]
		b.siftDown(0, end)
	}
	return b.items
}

func (b *bounded[T]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b.worse(b.items[i], b.items[p]) {
			return
		}
		b.items[i], b.items[p] = b.items[p], b.items[i]
		i = p
	}
}

func (b *bounded[T]) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && b.worse(b.items[r], b.items[l]) {
			m = r
		}
		if !b.worse(b.items[m], b.items[i]) {
			return
		}
		b.items[i], b.items[m] = b.items[m], b.items[i]
		i = m
	}
}

// worseHit is the collector's eviction order — the exact inverse of the
// result order (score descending, docID ascending on ties): lower score
// first, higher docID first among equals.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DocID > b.DocID
}

// hitCollector accumulates search hits into the global result contract:
// the top limit hits by score descending, docID ascending on ties, and
// only hits scoring strictly above zero. Collectors are pooled; acquire
// with acquireCollector and release after copying results out.
type hitCollector struct {
	heap bounded[Hit]
}

var collectorPool = sync.Pool{
	New: func() any { return &hitCollector{heap: bounded[Hit]{worse: worseHit}} },
}

// acquireCollector returns a pooled collector for the given limit
// (limit <= 0 keeps every hit).
func acquireCollector(limit int) *hitCollector {
	c := collectorPool.Get().(*hitCollector)
	c.heap.k = limit
	c.heap.items = c.heap.items[:0]
	return c
}

// release returns the collector (and its scratch buffer) to the pool.
func (c *hitCollector) release() { collectorPool.Put(c) }

// threshold is the score a new hit must strictly beat to be kept: zero
// until the heap fills (matching the exhaustive path's score > 0 filter),
// then the weakest kept score. Within one index an equal score loses:
// document-at-a-time evaluation visits docIDs in ascending order, so a
// later tie ranks below every kept hit anyway. A tie with a Bar raised by
// another index is a different matter (see Bar.threshold).
func (c *hitCollector) threshold() float64 {
	if c.heap.full() {
		return c.heap.root().Score
	}
	return 0
}

// collect offers one scoring document. Callers on an unordered feed (the
// exhaustive path) may offer ties freely: the heap's eviction order keeps
// the lower docID.
func (c *hitCollector) collect(docID int, score float64) {
	c.heap.push(Hit{DocID: docID, Score: score})
}

// results copies the ranked hits out (nil when nothing scored), leaving
// the scratch buffer to the pool.
func (c *hitCollector) results() []Hit {
	s := c.heap.sorted()
	if len(s) == 0 {
		return nil
	}
	out := make([]Hit, len(s))
	copy(out, s)
	return out
}

// Bar is the top-k bar of one search over several indexes whose rankings
// are merged into one (the sharded engine's shards, base and unmerged
// segments alike, each searched with the same limit). Each index's search
// raises it to its own k-th best score once its collector is full, and
// every search prunes against the highest bar raised so far: a document
// scoring below the bar cannot reach the merged top k, because the index
// that raised it holds k documents scoring at least that much. Only the
// rankings' merge may drop hits on that ground, so a bar must be shared by
// exactly the searches one merge combines. The zero value is no bar yet;
// a bar only rises, and is safe for concurrent use.
type Bar struct {
	// th holds the bits of threshold's value, never negative, so the bit
	// patterns order like the values.
	th atomic.Uint64
}

// threshold is the collector threshold the bar implies: the largest float
// below the bar, so that a document scoring exactly the bar is still kept —
// it can win the tie on docID against a document of another index. Zero
// for a nil bar or one never raised.
func (b *Bar) threshold() float64 {
	if b == nil {
		return 0
	}
	return math.Float64frombits(b.th.Load())
}

// raise lifts the bar to score, the k-th best of a full collector, unless
// it already stands at least as high.
func (b *Bar) raise(score float64) {
	if b == nil {
		return
	}
	nt := math.Float64bits(math.Nextafter(score, 0))
	for old := b.th.Load(); nt > old; old = b.th.Load() {
		if b.th.CompareAndSwap(old, nt) {
			return
		}
	}
}
