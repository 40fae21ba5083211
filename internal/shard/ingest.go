package shard

// The unified ingest surface: one Engine.Ingest(ctx, batch, options)
// entry point mirroring the Search(ctx, query, options) redesign. Each
// batch commits as one immutable in-memory segment per touched shard —
// no shard rebuild, no statistics recompute, no lock held during
// document analysis. A page that was ingested before is REPLACED: its
// previous documents are tombstoned in place and the new version gets
// fresh global IDs (upsert semantics).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	// MergeAuto nudges the background merger (if running) — the default.
	MergeAuto MergeHint = iota
	// MergeNone leaves the new segment alone until the merger's next
	// tick or ForceMerge.
	MergeNone
)

// Atomicity selects the WAL record layout, which is what the batch's
// crash-consistency contract rides on.
type Atomicity int

const (
	// AtomicBatch logs the whole batch as ONE record: after a crash,
	// recovery replays all of it or none of it.
	AtomicBatch Atomicity = iota
	// PerPage logs one record per page, each a one-page batch: a crash
	// (or a mid-batch append failure) may commit a prefix. Ingest then
	// returns the error along with the result describing the committed
	// prefix.
	PerPage
)

// IngestOptions configures one Ingest call. The zero value is an
// atomic batch under the WAL's own sync policy, merger nudged.
type IngestOptions struct {
	Durability Durability
	Merge      MergeHint
	Atomicity  Atomicity
}

// IngestResult describes one committed batch.
type IngestResult struct {
	// Segment is the batch's segment id (one per Ingest call; each
	// touched shard gets a segment carrying this id). 0 means the batch
	// was empty and no segment was created.
	Segment uint64
	// Pages and Docs count what committed (for PerPage with a mid-batch
	// WAL failure, the prefix).
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
// records are encoded, and each touched shard's new segment is built, its
// fields indexed in parallel (prepareBatch). The write lock then covers
// only the WAL append and the bookkeeping of the commit: the prebuilt
// segments join their shards, and previously-ingested pages with the same
// IDs are tombstoned (upsert). The new documents are searchable, and
// counted by NumDocs, the moment Ingest returns; corpus-wide statistics
// are maintained incrementally and stay integer-exact, so rankings remain
// byte-identical to a from-scratch build over the live documents.
//
// A ctx that is already done returns its error without committing; the
// deadline is NOT otherwise consulted (commits are short and atomic). An
// engine that has been closed refuses the batch with an error.
func (e *Engine) Ingest(ctx context.Context, pages []*crawler.MatchPage, opts IngestOptions) (IngestResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	if len(pages) == 0 {
		return IngestResult{PerShard: make([]int, len(e.base)), Durability: "none"}, nil
	}
	encode := func() ([][]byte, error) { return walRecords(pages, opts.Atomicity) }
	pb, err := e.prepareBatch(pages, encode)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return IngestResult{}, err
	}
	if e.beforeCommit != nil {
		e.beforeCommit()
	}

	e.mu.Lock()
	locked := time.Now()
	if e.closed {
		e.mu.Unlock()
		return IngestResult{}, errClosed
	}
	committed := len(pages)
	var walErr error
	ack := "none"
	if e.wal != nil {
		ack = "logged"
		if pb.recs == nil && pb.encErr == nil {
			// The WAL was attached after the prepare looked.
			pb.recs, pb.encErr = encode()
		}
		committed, walErr = e.logLocked(pb, len(pages), opts)
		switch opts.Durability {
		case DurSync:
			if committed > 0 {
				if err := e.wal.Sync(); err != nil && walErr == nil {
					walErr = fmt.Errorf("shard: WAL sync: %w", err)
				}
			}
			ack = "synced"
		case DurAsync:
			ack = "buffered"
		}
	}
	if committed == 0 {
		e.mu.Unlock()
		return IngestResult{PerShard: make([]int, len(e.base))}, walErr
	}
	res := e.commitLocked(pages[:committed], pb)
	res.Durability = ack
	met := e.met
	e.mu.Unlock()
	met.ingestCommit.ObserveDuration(time.Since(locked))
	met.ingest.ObserveDuration(time.Since(start))

	if opts.Merge == MergeAuto {
		e.nudgeMerger()
	}
	return res, walErr
}

// walRecords encodes a batch's WAL records: one JSON array of all the pages,
// or under PerPage one one-page array per page, up to the first page that
// fails to encode.
func walRecords(pages []*crawler.MatchPage, at Atomicity) ([][]byte, error) {
	if at != PerPage {
		rec, err := json.Marshal(pages)
		if err != nil {
			return nil, err
		}
		return [][]byte{rec}, nil
	}
	recs := make([][]byte, 0, len(pages))
	for _, p := range pages {
		rec, err := json.Marshal([]*crawler.MatchPage{p})
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// logLocked appends a batch's encoded records and returns how many of its
// pages they log: every page, none when the one record of an atomic batch
// fails, or under PerPage the pages logged before the first failure, an
// encode's included. Write lock held.
func (e *Engine) logLocked(pb *preparedBatch, pages int, opts IngestOptions) (int, error) {
	if opts.Atomicity != PerPage {
		err := pb.encErr
		if err == nil {
			err = e.walAppend(pb.recs[0], opts.Durability)
		}
		if err != nil {
			return 0, fmt.Errorf("shard: WAL append: %w", err)
		}
		return pages, nil
	}
	for i, rec := range pb.recs {
		if err := e.walAppend(rec, opts.Durability); err != nil {
			return i, fmt.Errorf("shard: WAL append (page %d of %d): %w", i, pages, err)
		}
	}
	if pb.encErr != nil {
		return len(pb.recs), fmt.Errorf("shard: WAL append (page %d of %d): %w", len(pb.recs), pages, pb.encErr)
	}
	return pages, nil
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

// preparedBatch is an upsert's work done before the write lock.
type preparedBatch struct {
	// docs holds each page's prepared documents, and segs each shard's
	// new segment index: its documents, in page order (buildSegments; nil
	// for a shard the batch adds none to). local holds each segment's
	// LocalStats, taken when no page repeats within the batch (nil
	// otherwise): a repeat tombstones its earlier copy at commit, inside
	// the segment.
	docs  [][]*index.Document
	segs  []*index.Index
	local []*index.CorpusStats
	// removed sums the statistics of the live documents each distinct page
	// of the batch held when the prepare read pageGIDs, and read holds the
	// slices it read, by page ID. The commit uses removed only while each
	// of them is still its page's slice (readUnchangedLocked).
	removed *index.CorpusStats
	read    map[string][]int
	// recs are the batch's WAL records (walRecords) and encErr their
	// encode error, both unset when the prepare found no WAL attached.
	recs   [][]byte
	encErr error
}

// statsScratch pools the analysis state the removal sums and the segment
// builds run with, so its token memo stays warm from one upsert to the
// next.
var statsScratch = sync.Pool{New: func() any { return new(index.Scratch) }}

// errClosed refuses an ingest into a closed engine, whose mapped bases are
// unmapped.
var errClosed = errors.New("shard: engine closed")

// prepareBatch runs an upsert's prepare. One fanOut on up to GOMAXPROCS
// goroutines runs sumRemoval in slot 0 (and, when encode is non-nil and a
// WAL is attached, encodes the WAL records with it) and prepares page i−1's
// documents in slot i > 0, so a one-page upsert sums its old version on one
// core while its new version is prepared on another. buildSegments then
// indexes the new documents, one field per core, and, when no page repeats
// in the batch, each segment's statistics are taken. It fails only when
// the engine is closed.
func (e *Engine) prepareBatch(pages []*crawler.MatchPage, encode func() ([][]byte, error)) (*preparedBatch, error) {
	pb := &preparedBatch{docs: make([][]*index.Document, len(pages))}
	var err error
	fanOut(len(pages)+1, runtime.GOMAXPROCS(0), func(i int) {
		if i > 0 {
			pb.docs[i-1] = e.builder.PageDocuments(e.level, pages[i-1])
			return
		}
		var wal bool
		if wal, err = e.sumRemoval(pb, pages); wal && encode != nil {
			pb.recs, pb.encErr = encode()
		}
	})
	if err != nil {
		return nil, err
	}
	pb.segs = e.buildSegments(pages, pb.docs)
	if len(pb.read) == len(pages) {
		pb.local = make([]*index.CorpusStats, len(pb.segs))
		for s, ix := range pb.segs {
			if ix != nil {
				pb.local[s] = ix.LocalStats()
			}
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
// the live documents each distinct page of the batch holds now, and keeps
// in pb.read the pageGIDs slices it read. The read lock keeps a merge's
// install and Close's unmap off the bytes AddDocStats reads; a pooled
// Scratch keeps two prepares over one sub-index from sharing analysis
// state. It reports whether a WAL is attached, and fails on a closed
// engine.
func (e *Engine) sumRemoval(pb *preparedBatch, pages []*crawler.MatchPage) (bool, error) {
	sc := statsScratch.Get().(*index.Scratch)
	defer statsScratch.Put(sc)
	pb.removed = index.NewCorpusStats()
	pb.read = make(map[string][]int, len(pages))
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false, errClosed
	}
	for _, p := range pages {
		if _, ok := pb.read[p.ID]; ok {
			continue
		}
		gids := e.pageGIDs[p.ID]
		pb.read[p.ID] = gids
		for _, gid := range gids {
			if ref := e.byGID[gid]; ref.sub != nil && !ref.sub.ix.IsDeleted(ref.local) {
				ref.sub.ix.AddDocStats(pb.removed, ref.local, sc)
			}
		}
	}
	return e.wal != nil, nil
}

// readUnchangedLocked reports whether every pageGIDs slice in read is
// still its page's slice, by identity: each commit assigns a page a fresh
// slice, and merges never touch the map, so an identical slice means no
// commit has tombstoned or added any of the page's documents since it was
// read. read holds the old slices, so no new one can reuse their address.
// Read lock required.
func (e *Engine) readUnchangedLocked(read map[string][]int) bool {
	for id, gids := range read {
		cur := e.pageGIDs[id]
		if len(cur) != len(gids) || len(cur) > 0 && &cur[0] != &gids[0] {
			return false
		}
	}
	return true
}

// applyBatch is Ingest without the WAL append — the replay path: the
// records being applied are already durable in the log.
func (e *Engine) applyBatch(pages []*crawler.MatchPage) error {
	pb, err := e.prepareBatch(pages, nil)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.commitLocked(pages, pb)
	e.mu.Unlock()
	return nil
}

// commitLocked is the ingest commit, bookkeeping only: each touched
// shard's prebuilt segment (pb.segs, all carrying this batch's segment id)
// gets the engine's scoring mode and corpus view and joins its shard, its
// documents get global IDs in local order, each page's previous version is
// tombstoned, the statistics are folded into the corpus-wide view, and the
// epoch is bumped when the batch added or tombstoned a document, which
// evicts every cached answer. pages may be a prefix of the prepared batch
// (a PerPage batch whose WAL append failed mid-batch); the prepared work is
// then used whole or not at all: the segments are rebuilt from the
// prefix's documents, and the tombstones summed, here. Write lock
// required.
//
// Statistics stay integer-exact through any sequence of commits: a
// tombstone subtracts exactly what the document's Add once contributed
// (index.AddDocStats re-analyzes the stored fields), a new segment adds its
// tombstone-aware LocalStats, and integer adds/subtracts commute — so
// the global view always equals a from-scratch recompute over the live
// documents, which is what keeps scatter-gather rankings byte-identical
// to a monolithic build. The tombstones' sum is pb.removed, summed before
// the lock, when no commit has changed a page of the batch since; else it
// is summed here. The segments' statistics are pb.local when the commit
// adopts the prepared segments and no page repeats; else they are taken
// here, after the tombstones.
func (e *Engine) commitLocked(pages []*crawler.MatchPage, pb *preparedBatch) IngestResult {
	n := len(e.base)
	res := IngestResult{Pages: len(pages), PerShard: make([]int, n)}
	segID := e.nextSeg
	e.nextSeg++
	res.Segment = segID

	// removed sums what the batch's tombstones take out of the corpus view,
	// subtracted once below: a re-upserted page tombstones ~119 documents,
	// and a CorpusStats apiece was most of this loop. sc is set when the
	// sum is taken here.
	removed, segs, local := pb.removed, pb.segs, pb.local
	if len(pages) < len(pb.docs) {
		removed, segs, local = nil, e.buildSegments(pages, pb.docs[:len(pages)]), nil
	}
	var sc *index.Scratch
	if removed == nil || !e.readUnchangedLocked(pb.read) {
		if removed != nil {
			e.stalePrepares++
		}
		removed = index.NewCorpusStats()
		sc = statsScratch.Get().(*index.Scratch)
		defer statsScratch.Put(sc)
	}
	newSubs := make([]*subIndex, n)
	for s, ix := range segs {
		if ix == nil {
			continue
		}
		ix.SetExhaustive(e.exhaustive)
		ix.SetCorpusStats(e.global)
		newSubs[s] = &subIndex{ix: ix, segID: segID, gids: make([]int, 0, ix.NumDocs())}
		e.segs[s] = append(e.segs[s], newSubs[s])
	}
	for pi, page := range pages {
		// Tombstone the page's previous version. Its statistics leave the
		// corpus view — except for documents from THIS batch (a page
		// repeated within one batch), whose statistics are excluded by the
		// segment's LocalStats below.
		for _, gid := range e.pageGIDs[page.ID] {
			ref := e.byGID[gid]
			if ref.sub == nil {
				continue
			}
			ix := ref.sub.ix
			if ix.IsDeleted(ref.local) {
				continue
			}
			if sc != nil && ref.sub.segID != segID {
				ix.AddDocStats(removed, ref.local, sc)
			}
			ix.Delete(ref.local)
			e.liveDocs--
			res.Tombstones++
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
		res.Docs += len(gids)
		res.PerShard[s] += len(gids)
		// Assigning to a string key replaces the stored key too, so every
		// assignment clones: a parsed page's ID is a view of its whole HTML
		// (crawler.ParseMatchPage), which the map would otherwise pin.
		e.pageGIDs[strings.Clone(page.ID)] = gids
	}

	e.global.Remove(removed)
	for s, sub := range newSubs {
		switch {
		case sub == nil:
		case local != nil:
			e.global.Merge(local[s])
		default:
			e.global.Merge(sub.ix.LocalStats())
		}
	}
	e.liveDocs += res.Docs
	if res.Docs > 0 || res.Tombstones > 0 {
		e.epoch++
	}
	e.updateLSMGaugesLocked()
	return res
}
