package shard

// The unified ingest surface: one Engine.Ingest(ctx, batch, options)
// entry point mirroring the Search(ctx, query, options) redesign. Each
// atomic batch commits as one immutable in-memory segment per touched
// shard — no shard rebuild, no statistics recompute, no lock held during
// document analysis. A page that was ingested before is REPLACED: its
// previous documents are tombstoned in place and the new version gets
// fresh global IDs (upsert semantics).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
)

// Durability selects the WAL acknowledgement an Ingest waits for.
type Durability int

const (
	// DurDefault follows the attached WAL's sync policy (wal.Options).
	DurDefault Durability = iota
	// DurSync forces an fsync before Ingest returns, whatever the
	// policy: an acknowledged batch survives a machine crash.
	DurSync
	// DurAsync appends without fsync: an acknowledged batch survives a
	// process crash (the OS holds the bytes) but may be lost on a
	// machine crash. The cheapest ack a firehose can buy.
	DurAsync
)

// MergeHint tells the engine what to do about compaction after commit.
type MergeHint int

const (
	// MergeAuto, the default: a commit that leaves a shard it touched at
	// mergeSegments segments or more starts a compaction pass over the
	// shards there, on a goroutine of its own, once the write lock is
	// released.
	MergeAuto MergeHint = iota
	// MergeNone starts no pass: the new segments wait for ForceMerge,
	// Save or a later MergeAuto commit.
	MergeNone
)

// Atomicity selects the WAL record layout, which is what the batch's
// crash-consistency contract rides on.
type Atomicity int

const (
	// AtomicBatch logs the whole batch as ONE record: after a crash,
	// recovery replays all of it or none of it.
	AtomicBatch Atomicity = iota
	// PerPage commits each page as a one-page atomic batch, logged as a
	// record of its own: a crash (or a failed append, or a ctx done
	// between pages) may commit a prefix. Ingest then returns the error
	// along with the result describing the committed prefix.
	PerPage
)

// IngestOptions configures one Ingest call. The zero value is an
// atomic batch under the WAL's own sync policy, MergeAuto.
type IngestOptions struct {
	Durability Durability
	Merge      MergeHint
	Atomicity  Atomicity
}

// IngestResult describes one committed batch.
type IngestResult struct {
	// Segment is the id of the segment the batch committed as (each
	// touched shard gets a segment carrying it), or under PerPage the id
	// of the last page's. 0 means nothing committed.
	Segment uint64
	// Pages counts the pages committed, every copy of a repeated page
	// included (for PerPage stopped mid-batch, the earlier pages). Docs
	// counts the documents committed: an atomic batch's earlier copies of
	// a page add none.
	Pages int
	Docs  int
	// PerShard counts the new documents per shard.
	PerShard []int
	// Tombstones counts previously-live documents this batch replaced.
	Tombstones int
	// Durability reports the acknowledgement level: "none" (no WAL),
	// "logged" (appended under the WAL's policy), "synced" (fsynced),
	// or "buffered" (appended, fsync deferred).
	Durability string
}

// Ingest commits a batch of match pages. Everything that can run before
// the write lock does, outside any lock or under the read lock beside
// searches: each page's documents are prepared, the statistics the
// batch's tombstones will take out of the corpus view are summed, the WAL
// record is encoded, and each touched shard's new segment is built, its
// fields indexed in parallel, and its statistics taken (prepareBatch). The
// write lock then covers only the WAL append and the bookkeeping of the
// commit, which adopts that plan whole: the prebuilt segments join their
// shards, and previously-ingested pages with the same IDs are tombstoned
// (upsert). Within an atomic batch the last copy of a page wins; the
// earlier copies are dropped before the prepare. The new documents are
// searchable, and counted by NumDocs, the moment Ingest returns;
// corpus-wide statistics are maintained incrementally and stay
// integer-exact, so rankings remain byte-identical to a from-scratch build
// over the live documents.
//
// A PerPage batch is a loop of one-page atomic commits, each its own WAL
// record and segment, which is what replay makes of its records. A failed
// append, or a ctx done between pages, stops the loop: Ingest returns the
// error beside the result of the pages committed before it.
//
// Under MergeAuto, a commit that leaves a shard it touched at
// mergeSegments segments starts a compaction pass once it has released
// the write lock; Ingest does not wait for it (see MergeHint).
//
// A ctx that is already done returns its error without committing; it is
// checked again after each atomic batch's prepare (under PerPage, each
// page's), and is otherwise not consulted (commits are short and atomic).
// An engine that has been closed refuses the batch with an error.
func (e *Engine) Ingest(ctx context.Context, pages []*crawler.MatchPage, opts IngestOptions) (IngestResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	res := IngestResult{PerShard: make([]int, len(e.base))}
	if len(pages) == 0 {
		res.Durability = "none"
		return res, nil
	}
	batches := [][]*crawler.MatchPage{pages}
	if opts.Atomicity == PerPage {
		batches = make([][]*crawler.MatchPage, len(pages))
		for i := range pages {
			batches[i] = pages[i : i+1]
		}
	}
	var met *engineMetrics
	var err error
	for i, batch := range batches {
		var m *engineMetrics
		if m, err = e.ingest(ctx, batch, opts, &res); m != nil {
			met = m
		}
		if err != nil {
			if opts.Atomicity == PerPage {
				err = fmt.Errorf("shard: page %d of %d: %w", i+1, len(pages), err)
			}
			break
		}
	}
	if met == nil {
		return res, err
	}
	met.ingest.ObserveDuration(time.Since(start))
	return res, err
}

// ingest commits pages as one atomic batch, adding what committed to res,
// unless ctx is done once they are prepared. Live ingests and WAL replay
// both commit through it. Once the leases are released, a MergeAuto
// commit that left a shard due starts a compaction pass (compactDue).
// It returns the metrics the commit read under the write lock, nil when
// nothing committed; a failed DurSync fsync returns them beside its error.
func (e *Engine) ingest(ctx context.Context, pages []*crawler.MatchPage, opts IngestOptions, res *IngestResult) (*engineMetrics, error) {
	pb, err := e.prepareBatch(pages)
	if err != nil {
		return nil, err
	}
	due := false
	defer func() {
		e.unlease(pb.leased)
		if due && opts.Merge == MergeAuto {
			e.compactDue()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.beforeCommit != nil {
		e.beforeCommit()
	}

	e.mu.Lock()
	locked := time.Now()
	if e.closed {
		e.mu.Unlock()
		return nil, errClosed
	}
	var syncErr error
	ack := "none"
	if e.wal != nil {
		ack = "logged"
		if pb.rec == nil && pb.encErr == nil {
			// The WAL was attached after the prepare looked.
			pb.rec, pb.encErr = json.Marshal(pb.pages)
		}
		err := pb.encErr
		if err == nil {
			err = e.walAppend(pb.rec, opts.Durability)
		}
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("shard: WAL append: %w", err)
		}
		switch opts.Durability {
		case DurSync:
			if err := e.wal.Sync(); err != nil {
				syncErr = fmt.Errorf("shard: WAL sync: %w", err)
			}
			ack = "synced"
		case DurAsync:
			ack = "buffered"
		}
	}
	due = e.commitLocked(pb, res)
	res.Pages += len(pages)
	res.Durability = ack
	met := e.met
	e.mu.Unlock()
	met.ingestCommit.ObserveDuration(time.Since(locked))
	return met, syncErr
}

// walAppend routes one record through the durability the caller asked
// for. Write lock held.
func (e *Engine) walAppend(rec []byte, d Durability) error {
	if e.failAppend > 0 {
		if e.failAppend--; e.failAppend == 0 {
			return errors.New("shard: append refused (failAppend)")
		}
	}
	if d == DurAsync {
		return e.wal.AppendAsync(rec)
	}
	return e.wal.Append(rec)
}

// prepareDocs runs the expensive document preparation (extraction,
// population, inference) for every page through fanOut, on at most
// min(workers, GOMAXPROCS) goroutines, outside any engine lock — searches
// and other ingests proceed while it runs. BuildStream calls it with
// Options.Parallelism.
func (e *Engine) prepareDocs(pages []*crawler.MatchPage, workers int) [][]*index.Document {
	docsByPage := make([][]*index.Document, len(pages))
	fanOut(len(pages), workers, func(i int) {
		docsByPage[i] = e.builder.PageDocuments(e.level, pages[i])
	})
	return docsByPage
}

// preparedBatch is an upsert's plan, made before the write lock and
// adopted whole by the commit.
type preparedBatch struct {
	// pages are the batch's pages, each ID once (lastCopies), and leased
	// the lease slots they hold (lease) until the commit is done.
	pages  []*crawler.MatchPage
	leased uint64
	// docs holds each page's prepared documents, and segs each shard's
	// new segment index: its documents, in page order (buildSegments; nil
	// for a shard the batch adds none to), and local its LocalStats.
	docs  [][]*index.Document
	segs  []*index.Index
	local []*index.CorpusStats
	// removed sums the statistics of the live documents the batch's pages
	// hold. The leases keep every other commit of those pages out until
	// this one is done, so the sum is still exact at the commit.
	removed *index.CorpusStats
	// rec is the batch's WAL record and encErr its encode error, both
	// unset when the prepare found no WAL attached.
	rec    []byte
	encErr error
}

// statsScratch pools the analysis state the removal sums and the segment
// builds run with, so its token memo stays warm from one upsert to the
// next.
var statsScratch = sync.Pool{New: func() any { return new(index.Scratch) }}

// errClosed refuses an ingest, a search or a save on a closed engine,
// whose mapped bases are unmapped.
var errClosed = errors.New("shard: engine closed")

// lastCopies returns pages without the copies of a page that a later copy
// in the batch replaces, in order.
func lastCopies(pages []*crawler.MatchPage) []*crawler.MatchPage {
	if len(pages) < 2 {
		return pages
	}
	last := make(map[string]int, len(pages))
	for i, p := range pages {
		last[p.ID] = i
	}
	if len(last) == len(pages) {
		return pages
	}
	kept := make([]*crawler.MatchPage, 0, len(last))
	for i, p := range pages {
		if last[p.ID] == i {
			kept = append(kept, p)
		}
	}
	return kept
}

// leaseSlots is the size of the engine's page-lease table: the bits of
// the uint64 a batch's slots are held in.
const leaseSlots = 64

// lease locks the lease slot of each page, found by the hash that places
// pages on shards, in ascending slot order so that two batches cannot
// deadlock, and returns the slots held. A page's pageGIDs slice changes
// only in a commit of that page, and merges never touch the map, so a
// removal sum taken under a page's lease stays exact until its commit
// releases it.
func (e *Engine) lease(pages []*crawler.MatchPage) uint64 {
	var held uint64
	for _, p := range pages {
		held |= 1 << shardFor(p.ID, leaseSlots)
	}
	for set := held; set != 0; set &= set - 1 {
		e.leases[bits.TrailingZeros64(set)].Lock()
	}
	return held
}

// unlease releases the lease slots lease returned.
func (e *Engine) unlease(held uint64) {
	for ; held != 0; held &= held - 1 {
		e.leases[bits.TrailingZeros64(held)].Unlock()
	}
}

// prepareBatch makes an upsert's plan from the last copy of each page.
// One fanOut on up to GOMAXPROCS goroutines leases the pages and runs
// sumRemoval in slot 0 (and, when a WAL is attached, encodes the WAL
// record with it), and prepares page i−1's documents in
// slot i > 0, so a one-page upsert sums its old version on one core while
// its new version is prepared on another, and a second upsert of a leased
// page waits only before its sum. buildSegments then indexes the new
// documents, one field per core, and each segment's statistics are taken.
// It fails only when the engine is closed; otherwise the caller releases
// pb.leased once the plan is committed or dropped.
func (e *Engine) prepareBatch(pages []*crawler.MatchPage) (*preparedBatch, error) {
	pages = lastCopies(pages)
	pb := &preparedBatch{pages: pages, docs: make([][]*index.Document, len(pages))}
	var err error
	fanOut(len(pages)+1, runtime.GOMAXPROCS(0), func(i int) {
		if i > 0 {
			pb.docs[i-1] = e.builder.PageDocuments(e.level, pages[i-1])
			return
		}
		pb.leased = e.lease(pages)
		var wal bool
		if wal, err = e.sumRemoval(pb); wal {
			pb.rec, pb.encErr = json.Marshal(pages)
		}
	})
	if err != nil {
		e.unlease(pb.leased)
		return nil, err
	}
	pb.segs = e.buildSegments(pages, pb.docs)
	pb.local = make([]*index.CorpusStats, len(pb.segs))
	for s, ix := range pb.segs {
		if ix != nil {
			pb.local[s] = ix.LocalStats()
		}
	}
	return pb, nil
}

// buildSegments builds, for each shard the pages add documents to, the
// index of those documents in page order: the segment a commit adopts.
// Each index's fields are indexed through fanOut, one field per claim on
// up to GOMAXPROCS goroutines, each claim analysing with a pooled Scratch.
// It reads no engine state but the shard count, so it runs under no lock.
func (e *Engine) buildSegments(pages []*crawler.MatchPage, docs [][]*index.Document) []*index.Index {
	segs := make([]*index.Index, len(e.base))
	byShard := make([][]*index.Document, len(e.base))
	for i, p := range pages {
		s := shardFor(p.ID, len(e.base))
		byShard[s] = append(byShard[s], docs[i]...)
	}
	for s, docs := range byShard {
		if len(docs) == 0 {
			continue
		}
		segs[s] = index.New(e.builder.Analyzer)
		segs[s].AddDocs(docs, func(n int, field func(int, *index.Scratch)) {
			fanOut(n, runtime.GOMAXPROCS(0), func(i int) {
				sc := statsScratch.Get().(*index.Scratch)
				field(i, sc)
				statsScratch.Put(sc)
			})
		})
	}
	return segs
}

// sumRemoval sums into pb.removed, under the read lock, the statistics of
// the live documents each page of pb holds now. The read lock keeps a
// merge's install and Close's unmap off the bytes AddDocStats reads; a
// pooled Scratch keeps two prepares over one sub-index from sharing
// analysis state. It reports whether a WAL is attached, and fails on a
// closed engine.
func (e *Engine) sumRemoval(pb *preparedBatch) (bool, error) {
	sc := statsScratch.Get().(*index.Scratch)
	defer statsScratch.Put(sc)
	pb.removed = index.NewCorpusStats()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false, errClosed
	}
	for _, p := range pb.pages {
		for _, gid := range e.pageGIDs[p.ID] {
			if ref := e.byGID[gid]; ref.sub != nil && !ref.sub.ix.IsDeleted(ref.local) {
				ref.sub.ix.AddDocStats(pb.removed, ref.local, sc)
			}
		}
	}
	return e.wal != nil, nil
}

// commitLocked is the ingest commit, bookkeeping only: it adopts pb whole
// and adds what it committed to res, under a new segment id. Each touched
// shard's prebuilt segment (pb.segs) gets the engine's scoring mode and
// corpus view and joins its shard, its documents get global IDs in local
// order, each page's previous version is tombstoned, the statistics are
// folded into the corpus-wide view, and the epoch is bumped when the
// batch added or tombstoned a document, which evicts every cached answer.
// It reports whether a shard it touched now holds mergeSegments segments
// or more. Write lock required.
//
// Statistics stay integer-exact through any sequence of commits: a
// tombstone subtracts exactly what the document's Add once contributed
// (index.AddDocStats re-analyzes the stored fields; pb.removed is their
// sum), a new segment adds its LocalStats (pb.local), and integer
// adds/subtracts commute — so the global view always equals a from-scratch
// recompute over the live documents, which is what keeps scatter-gather
// rankings byte-identical to a monolithic build.
func (e *Engine) commitLocked(pb *preparedBatch, res *IngestResult) (due bool) {
	n := len(e.base)
	res.Segment = e.nextSeg
	e.nextSeg++

	newSubs := make([]*subIndex, n)
	for s, ix := range pb.segs {
		if ix == nil {
			continue
		}
		newSubs[s] = &subIndex{ix: ix, gids: make([]int, 0, ix.NumDocs())}
		e.segs[s] = append(e.segs[s], newSubs[s])
		due = due || len(e.segs[s]) >= mergeSegments
	}
	added, tombstoned := 0, 0
	for pi, page := range pb.pages {
		for _, gid := range e.pageGIDs[page.ID] {
			if ref := e.byGID[gid]; ref.sub != nil && ref.sub.ix.Delete(ref.local) {
				tombstoned++
			}
		}

		s := shardFor(page.ID, n)
		sub := newSubs[s]
		var gids []int
		for range pb.docs[pi] {
			gid := len(e.byGID)
			e.byGID = append(e.byGID, docRef{sub: sub, local: len(sub.gids)})
			sub.gids = append(sub.gids, gid)
			gids = append(gids, gid)
		}
		added += len(gids)
		res.PerShard[s] += len(gids)
		// Assigning to a string key replaces the stored key too, so every
		// assignment clones: a parsed page's ID is a view of its whole HTML
		// (crawler.ParseMatchPage), which the map would otherwise pin.
		e.pageGIDs[strings.Clone(page.ID)] = gids
	}

	e.global.Remove(pb.removed)
	for s, sub := range newSubs {
		if sub != nil {
			e.global.Merge(pb.local[s])
		}
	}
	res.Docs += added
	res.Tombstones += tombstoned
	e.liveDocs += added - tombstoned
	if added > 0 || tombstoned > 0 {
		e.epoch++
	}
	e.updateLSMGaugesLocked()
	return due
}
