package shard

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
