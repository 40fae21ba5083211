package index

import (
	"sync"
	"unsafe"
)

// One arena per search. Search builds a scorer tree for every call — a
// two-token keyword query over the nine semantic fields is up to eighteen
// term cursors under one boolean scorer, which inlines each token's field
// disjunction — walks it once and drops it.
// Instead of a heap allocation per node, child list and mapped block
// buffer, the tree is built in a searchArena taken from a pool and handed
// back, cleared, once the hits are collected.
//
// An arena is one slab per element type. A slab hands out consecutive
// stretches of one backing array and never moves a stretch it handed out,
// so a pointer into one stays good for the whole search. A request the
// array cannot hold starts a new array, at least twice the size, and the
// old one is left to the tree that points into it; after a search or two
// an arena fits the searches it serves, and building a tree allocates
// nothing.
//
// Clearing zeroes every slot handed out. The next search therefore gets
// zeroed memory, and a pooled arena pins nothing the last tree pointed at:
// not a closed mapped segment, not a merged-away base. An arena grown past
// maxArenaBytes is dropped instead of pooled, so one outsized query does
// not leave its memory with every P. The pool is the only place an arena
// waits between searches — never an Index or an Engine — and two garbage
// collections empty it.
type searchArena struct {
	terms   slab[termScorer]
	phrases slab[phraseScorer]
	bools   slab[booleanScorer]
	maxes   slab[maxScorer]
	scorers slab[scorer] // child lists
	ints    slab[int]    // child positions and MaxScore orders
	floats  slab[float64]
	cursors slab[postingsCursor] // a phrase's later terms
	follow  slab[[]int32]
	// Mapped cursors' block buffers: docIDs and positions, position ends.
	int32s  slab[int32]
	uint32s slab[uint32]
	// Fuzzy expansion scratch, reused by each fuzzy clause in turn.
	expTerms   []string
	expWeights []float64
}

// maxArenaBytes bounds the slab memory an arena may take back to the pool:
// about twenty times what a four-token keyword query over eleven fields
// takes on a mapped index.
const maxArenaBytes = 1 << 20

// slabFloor is the smallest array a slab allocates, in bytes.
const slabFloor = 4 << 10

var arenaPool = sync.Pool{New: func() any { return new(searchArena) }}

func acquireArena() *searchArena { return arenaPool.Get().(*searchArena) }

// release clears the arena and pools it, unless it grew too large to keep.
func (a *searchArena) release() {
	if a.clear() <= maxArenaBytes {
		arenaPool.Put(a)
	}
}

// clear zeroes every slot handed out since the last clear and returns the
// arena's size in bytes.
func (a *searchArena) clear() int {
	clear(a.expTerms[:cap(a.expTerms)])
	clear(a.expWeights[:cap(a.expWeights)])
	a.expTerms, a.expWeights = a.expTerms[:0], a.expWeights[:0]
	return a.terms.clear() + a.phrases.clear() + a.bools.clear() + a.maxes.clear() +
		a.scorers.clear() + a.ints.clear() + a.floats.clear() + a.cursors.clear() +
		a.follow.clear() + a.int32s.clear() + a.uint32s.clear() +
		cap(a.expTerms)*int(unsafe.Sizeof("")) + cap(a.expWeights)*8
}

// unpositioned returns n child positions, all before the first document,
// followed by extra zeroed ints.
func (a *searchArena) unpositioned(n, extra int) []int {
	ints := a.ints.take(n + extra)
	for i := range ints[:n] {
		ints[i] = -1
	}
	return ints
}

// int32Buf, uint32Buf and float64Buf are a mapped cursor's n-slot buffers:
// from the arena of the search that built it, or from the heap for a cursor
// that walks postings outside a search (nil arena).
func (a *searchArena) int32Buf(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.int32s.take(n)
}

func (a *searchArena) uint32Buf(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return a.uint32s.take(n)
}

func (a *searchArena) float64Buf(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.floats.take(n)
}

// slab hands out stretches of a backing array whose slots in use are
// buf[:len(buf)].
type slab[T any] struct{ buf []T }

// take returns n zeroed slots, with capacity n so that an append past them
// reallocates instead of running into the next stretch.
func (s *slab[T]) take(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		var zero T
		s.buf = make([]T, 0, max(2*cap(s.buf), n, slabFloor/int(unsafe.Sizeof(zero))))
	}
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// clear zeroes the slots in use, empties the slab and returns its size in
// bytes.
func (s *slab[T]) clear() int {
	clear(s.buf)
	s.buf = s.buf[:0]
	var zero T
	return cap(s.buf) * int(unsafe.Sizeof(zero))
}
