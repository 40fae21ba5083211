package shard

// Background segment compaction. A segment's lifecycle:
//
//	active  — being filled by its Ingest batch (under the write lock)
//	sealed  — the batch committed; postings immutable, only tombstone
//	          bits move (searches scatter over it)
//	merging — snapshotted into a running merge; still serving searches
//	merged  — replaced by the new base; dropped from the shard
//
// A merge is invisible to queries: global IDs, scores, tie order and
// corpus statistics are all unchanged, so no epoch moves and no cache
// entry is evicted. The heavy work (postings concatenation, cap/block
// rebuilds) runs OUTSIDE the engine lock against a liveness snapshot;
// only the final swap takes the write lock, where documents tombstoned
// mid-merge are re-deleted on the merged index.

import (
	"time"

	"repro/internal/index"
	"repro/internal/semindex"
)

const (
	// mergeSegments triggers compaction when a shard's segment count
	// reaches it.
	mergeSegments = 4
	// mergeInterval is the merger's poll cadence. Ingest nudges the merger
	// too, so the ticker is a backstop, not the latency floor.
	mergeInterval = 200 * time.Millisecond
)

// StartMerger launches the background merger; a second call while one
// runs is a no-op. Stop it with StopMerger before discarding the engine.
func (e *Engine) StartMerger() {
	e.mergerMu.Lock()
	defer e.mergerMu.Unlock()
	if e.mergerStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	nudge := make(chan struct{}, 1)
	e.mergerStop, e.mergerDone, e.mergeNudge = stop, done, nudge
	go func() {
		defer close(done)
		t := time.NewTicker(mergeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			case <-nudge:
			}
			for s := 0; s < len(e.base); s++ {
				select {
				case <-stop:
					return
				default:
				}
				e.mu.RLock()
				due := len(e.segs[s]) >= mergeSegments
				e.mu.RUnlock()
				if due {
					e.mergeShard(s)
				}
			}
		}
	}()
}

// StopMerger stops the background merger and waits for an in-flight
// merge to land. No-op when none is running.
func (e *Engine) StopMerger() {
	e.mergerMu.Lock()
	stop, done := e.mergerStop, e.mergerDone
	e.mergerStop, e.mergerDone, e.mergeNudge = nil, nil, nil
	e.mergerMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// nudgeMerger wakes the merger without waiting (no-op when not running).
func (e *Engine) nudgeMerger() {
	e.mergerMu.Lock()
	nudge := e.mergeNudge
	e.mergerMu.Unlock()
	if nudge != nil {
		select {
		case nudge <- struct{}{}:
		default:
		}
	}
}

// ForceMerge synchronously compacts every shard that has segments or
// base tombstones — the "fully merged" state the equivalence gate
// compares against, and what Save runs before checkpointing.
func (e *Engine) ForceMerge() {
	for s := 0; s < len(e.base); s++ {
		e.mu.RLock()
		due := len(e.segs[s]) > 0 || e.base[s].si.Index.NumDeleted() > 0
		e.mu.RUnlock()
		if due {
			e.mergeShard(s)
		}
	}
}

// mergeShard compacts one shard's base + current segments into a new
// base. Three phases: snapshot under the read lock, merge off-lock
// (prepareMerge), swap under the write lock (installMerge).
func (e *Engine) mergeShard(s int) {
	e.mergeOpMu.Lock()
	defer e.mergeOpMu.Unlock()
	e.installMerge(s, e.prepareMerge(s))
}

// pendingMerge is a shard merge prepared against a snapshot, not installed.
type pendingMerge struct {
	start  time.Time
	subs   []*subIndex
	merged *index.Index
	remaps [][]int
	nb     *subIndex
}

// prepareMerge runs phases 1 and 2 of mergeShard. mergeOpMu held.
func (e *Engine) prepareMerge(s int) *pendingMerge {
	pm := &pendingMerge{start: time.Now()}
	// Phase 1: snapshot the merge set. Postings are immutable; the only
	// concurrently-moving state is tombstone bits, so the snapshot is a
	// copy of each sub's liveness mask.
	e.mu.RLock()
	pm.subs = append([]*subIndex{e.base[s]}, e.segs[s]...)
	sources := make([]*index.Index, len(pm.subs))
	masks := make([][]bool, len(pm.subs))
	for i, sub := range pm.subs {
		sources[i] = sub.si.Index
		masks[i] = sub.si.Index.DeletedMask()
		if masks[i] == nil {
			masks[i] = make([]bool, sub.si.Index.NumDocs())
		}
	}
	e.mu.RUnlock()

	// Phase 2: merge against the snapshot, off-lock. Searches and
	// ingests proceed; segments added meanwhile are simply not part of
	// this merge and survive the swap.
	pm.merged, pm.remaps = index.MergeIndexes(sources, masks)

	// Phase 2.5: a mapped engine persists the merge and reopens it as a
	// mapped scratch segment (tmp + fsync + rename + CRC reopen), still
	// off-lock, so compaction sheds its heap instead of accreting it. A
	// nil sub falls back to serving the heap merge. mappedBase is set
	// once before serving and read-only after, so the unlocked read is
	// safe.
	if e.mappedBase != "" {
		pm.nb = e.writeMappedSeg(s, pm.merged)
	}
	return pm
}

// installMerge is phase 3 of mergeShard: the swap. mergeOpMu held.
func (e *Engine) installMerge(s int, pm *pendingMerge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.base[s] != pm.subs[0] || len(e.segs[s]) < len(pm.subs)-1 {
		// Another compaction (Save's checkpoint path) replaced the merge
		// set while we worked; discard this merge.
		releaseSub(pm.nb)
		return
	}
	e.applyMergedLocked(s, pm.subs, pm.merged, pm.remaps, len(pm.subs)-1, pm.nb)
	e.met.merges.Inc()
	e.met.mergeLatency.ObserveDuration(time.Since(pm.start))
}

// applyMergedLocked installs a merged index as shard s's new base:
// global-ID refs are rewritten through the remaps, documents tombstoned
// after the liveness snapshot are re-deleted on the merged index (their
// statistics were already subtracted when the tombstone landed), dropped
// documents become holes, and the first nOldSegs segments are retired.
// Nothing observable changes: no statistics move, no epochs bump, no
// cache entry is touched. Write lock required.
//
// newBase, when non-nil, is a mapped reopen of merged (writeMappedSeg) —
// the same documents under the same local IDs — and serves in its place;
// a retiring mapped old base is unmapped, which is safe here because the
// write lock excludes every reader (see mapped.go).
func (e *Engine) applyMergedLocked(s int, subs []*subIndex, merged *index.Index, remaps [][]int, nOldSegs int, newBase *subIndex) {
	if newBase == nil {
		newBase = &subIndex{si: &semindex.SemanticIndex{Level: e.level, Index: merged}}
	}
	serve := newBase.si.Index
	newBase.gids = make([]int, serve.NumDocs())
	serve.SetCorpusStats(e.global)
	serve.SetExhaustive(e.exhaustive)
	for i, sub := range subs {
		remap := remaps[i]
		for local := 0; local < len(remap); local++ {
			gid := sub.gids[local]
			nid := remap[local]
			if nid < 0 {
				// Dead at snapshot time: dropped by the merge, now a hole.
				e.byGID[gid] = docRef{sub: nil, shard: -1}
				continue
			}
			if sub.si.Index.IsDeleted(local) && !serve.IsDeleted(nid) {
				// Tombstoned while the merge ran: carry the bit forward.
				serve.Delete(nid)
			}
			newBase.gids[nid] = gid
			e.byGID[gid] = docRef{sub: newBase, shard: s, local: nid}
		}
	}
	oldBase := e.base[s]
	e.base[s] = newBase
	e.segs[s] = append([]*subIndex(nil), e.segs[s][nOldSegs:]...)
	releaseSub(oldBase)
	e.updateLSMGaugesLocked()
}
