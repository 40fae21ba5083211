package shard

import "repro/internal/index"

// SetSliceDocs sets how many live documents pay for one goroutine of a
// scatter, sliceDocs unless a test lowers it. At 1 every search of an
// engine holding a document per shard claims its shards beside helpers, up
// to GOMAXPROCS goroutines in all. Set it before searching, like SetStall.
func (e *Engine) SetSliceDocs(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slice = n
}

// Doc returns the stored document for a global docID, or nil for an
// unknown, tombstoned or lost ID (quarantined shards and merged-away
// tombstones leave holes in the ID space rather than renumbering).
func (e *Engine) Doc(gid int) *index.Document {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if gid < 0 || gid >= len(e.byGID) {
		return nil
	}
	ref := e.byGID[gid]
	if ref.sub == nil || ref.sub.si.Index.IsDeleted(ref.local) {
		return nil
	}
	return ref.sub.si.Index.Doc(ref.local)
}
