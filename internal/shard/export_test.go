package shard

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/semindex"
)

// Fixture returns the fixture corpus's pages and their monolith (see
// fixture).
func Fixture(t testing.TB) ([]*crawler.MatchPage, *semindex.SemanticIndex) { return fixture(t) }

// ScanNeighbours is the brute-force neighbour finder did-you-mean is held
// to (see scanNeighbours).
var ScanNeighbours = scanNeighbours

// SetSliceDocs sets how many live documents pay for one goroutine of a
// scatter, sliceDocs unless a test lowers it. At 1 every search of an
// engine holding a document per shard claims its shards beside helpers, up
// to GOMAXPROCS goroutines in all. Set it before searching, like SetStall.
func (e *Engine) SetSliceDocs(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slice = n
}

// CachedDocs returns how many stored documents the engine's bases and
// segments hold decoded (see index.Index.CachedDocs).
func (e *Engine) CachedDocs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return cachedDocs(e)
}

// SetBeforeCommit installs fn to run in Ingest between the prepare and the
// write lock (nil removes it). Set it before ingesting, like SetStall.
func (e *Engine) SetBeforeCommit(fn func()) { e.beforeCommit = fn }

// FailWALAppend makes the n-th WAL append from now fail without writing
// (n <= 0: none does).
func (e *Engine) FailWALAppend(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failAppend = n
}
