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
// mid-merge are re-deleted on the merged index. Each compaction pass —
// the merger's sweep, ForceMerge, Save's checkpoint — merges its shards
// concurrently, at most GOMAXPROCS at a time, and swaps them in shard
// order.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
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
			select {
			case <-stop:
				return
			default:
			}
			e.mergeShards(func(s int) bool { return len(e.segs[s]) >= mergeSegments })
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
// compares against. The shards' merges run concurrently (mergeShards).
func (e *Engine) ForceMerge() {
	e.mergeShards(e.dirtyLocked)
}

// dirtyLocked reports whether shard s has segments or base tombstones to
// compact away. Read lock required.
func (e *Engine) dirtyLocked(s int) bool {
	return len(e.segs[s]) > 0 || e.base[s].ix.NumDeleted() > 0
}

// mergeShards compacts every shard due selects, under one mergeOpMu
// hold: due is evaluated under the read lock, the selected shards'
// snapshots and off-lock merges (prepareMerge) run concurrently, and
// their swaps (installMerge) run in shard order (see compactInBatches).
func (e *Engine) mergeShards(due func(s int) bool) {
	e.mergeOpMu.Lock()
	defer e.mergeOpMu.Unlock()
	e.mu.RLock()
	var slots []int
	for s := range e.base {
		if due(s) {
			slots = append(slots, s)
		}
	}
	e.mu.RUnlock()
	pms := make([]*pendingMerge, len(e.base))
	compactInBatches(slots,
		func(s int) { pms[s] = e.prepareMerge(s) },
		func(s int) { e.installMerge(s, pms[s]); pms[s] = nil })
}

// compactInBatches runs merge for the listed shards at most GOMAXPROCS at
// a time and, after each batch, install for the batch's shards in list
// order. At most GOMAXPROCS merged shards are therefore held before their
// swap, and installs land in the order the shards were listed.
func compactInBatches(slots []int, merge, install func(s int)) {
	for len(slots) > 0 {
		batch := slots[:min(len(slots), runtime.GOMAXPROCS(0))]
		slots = slots[len(batch):]
		fanOut(len(batch), len(batch), func(i int) { merge(batch[i]) })
		for _, s := range batch {
			install(s)
		}
	}
}

// fanOut is the engine's one claim loop: it runs fn(i) once for every slot
// i in [0, n) and returns once every call has finished. The caller's
// goroutine claims slots from an atomic counter beside
// min(n, workers, GOMAXPROCS)−1 helper goroutines; with no helper (workers
// 1, or GOMAXPROCS 1) the calls run in slot order on the caller's
// goroutine and nothing is started. workers is how many goroutines the
// work can pay for: a helper costs a goroutine start and a thread wake-up
// whether or not it claims anything.
//
// What waits: done counts slots, not helpers, so fanOut returns when the
// last slot has run, not when the last helper has. What stops a helper: it
// runs out of slots to claim. A helper the scheduler wakes after every slot
// is claimed finds nothing, never calls fn, and touches only the counter,
// which no other call shares.
func fanOut(n, workers int, fn func(i int)) {
	helpers := min(n, workers, runtime.GOMAXPROCS(0)) - 1
	if helpers <= 0 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var done sync.WaitGroup
	done.Add(n)
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
			done.Done()
		}
	}
	for range helpers {
		go claim()
	}
	claim()
	done.Wait()
}

// pendingMerge is a shard merge prepared against a snapshot, not
// installed: subs is the merge set (base first), merged and remaps are
// MergeIndexes' output, gids are merged's global IDs, nb is merged's
// mapped reopen (nil to serve the heap merge), and start is when the
// snapshot was taken.
type pendingMerge struct {
	start  time.Time
	subs   []*subIndex
	merged *index.Index
	remaps [][]int
	gids   []int
	nb     *subIndex
}

// merge merges pm.subs against masks (nil: their live tombstone bits) and
// carries each surviving document's global ID to its merged local ID,
// which keeps them ascending.
func (pm *pendingMerge) merge(masks [][]bool) {
	sources := make([]*index.Index, len(pm.subs))
	for i, sub := range pm.subs {
		sources[i] = sub.ix
	}
	pm.merged, pm.remaps = index.MergeIndexes(sources, masks)
	pm.gids = make([]int, pm.merged.NumDocs())
	for i, remap := range pm.remaps {
		for local, nid := range remap {
			if nid >= 0 {
				pm.gids[nid] = pm.subs[i].gids[local]
			}
		}
	}
}

// prepareMerge runs a shard merge's first two phases: snapshot under the
// read lock, merge off-lock. mergeOpMu held.
func (e *Engine) prepareMerge(s int) *pendingMerge {
	pm := &pendingMerge{start: time.Now()}
	// Phase 1: snapshot the merge set. Postings are immutable; the only
	// concurrently-moving state is tombstone bits, so the snapshot is a
	// copy of each sub's liveness mask.
	e.mu.RLock()
	pm.subs = append([]*subIndex{e.base[s]}, e.segs[s]...)
	masks := make([][]bool, len(pm.subs))
	for i, sub := range pm.subs {
		masks[i] = sub.ix.DeletedMask()
		if masks[i] == nil {
			masks[i] = make([]bool, sub.ix.NumDocs())
		}
	}
	e.mu.RUnlock()

	// Phase 2: merge against the snapshot, off-lock. Searches and
	// ingests proceed; segments added meanwhile are simply not part of
	// this merge and survive the swap.
	pm.merge(masks)

	// Phase 2.5: a mapped engine persists the merge and reopens it as a
	// mapped scratch segment (tmp + fsync + rename + CRC reopen), still
	// off-lock, so compaction sheds its heap instead of accreting it. A
	// nil sub falls back to serving the heap merge. mappedBase is set
	// once before serving and read-only after, so the unlocked read is
	// safe.
	if e.mappedBase != "" {
		pm.nb = e.writeMappedSeg(s, pm.merged, pm.gids)
	}
	return pm
}

// installMerge is phase 3: the swap. mergeOpMu held. The merge set is
// still shard s's base and oldest segments: every other writer of a base
// (Save's compactAllLocked and adoptMappedBaseLocked, Close's unmap)
// holds mergeOpMu too, and the only write that can run between
// prepareMerge and here, commitLocked, only appends segments.
func (e *Engine) installMerge(s int, pm *pendingMerge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.applyMergedLocked(s, pm)
}

// applyMergedLocked installs a prepared merge as shard s's new base:
// global-ID refs are rewritten through the remaps, documents tombstoned
// after the liveness snapshot are re-deleted on the merged index (their
// statistics were already subtracted when the tombstone landed), dropped
// documents become holes, and the merge set's segments are retired.
// Nothing observable changes: no statistics move, the epoch stays, no
// cache entry is touched. Every installed compaction counts in the merge
// metrics, timed from its snapshot to this swap. Write lock required.
//
// pm.nb, when non-nil, is a mapped reopen of pm.merged (writeMappedSeg)
// — the same documents under the same local IDs — and serves in its
// place; a retiring mapped old base is unmapped, which is safe here
// because the write lock excludes every reader (see mapped.go).
func (e *Engine) applyMergedLocked(s int, pm *pendingMerge) {
	newBase := pm.nb
	if newBase == nil {
		newBase = &subIndex{ix: pm.merged, gids: pm.gids}
	}
	serve := newBase.ix
	serve.SetCorpusStats(e.global)
	serve.SetExhaustive(e.exhaustive)
	for i, sub := range pm.subs {
		for local, nid := range pm.remaps[i] {
			gid := sub.gids[local]
			if nid < 0 {
				// Dead at snapshot time: dropped by the merge, now a hole.
				e.byGID[gid] = docRef{}
				continue
			}
			if sub.ix.IsDeleted(local) && !serve.IsDeleted(nid) {
				// Tombstoned while the merge ran: carry the bit forward.
				serve.Delete(nid)
			}
			e.byGID[gid] = docRef{sub: newBase, local: nid}
		}
	}
	oldBase := e.base[s]
	e.base[s] = newBase
	e.segs[s] = append([]*subIndex(nil), e.segs[s][len(pm.subs)-1:]...)
	releaseSub(oldBase)
	e.updateLSMGaugesLocked()
	e.met.merges.Inc()
	e.met.mergeLatency.ObserveDuration(time.Since(pm.start))
}
