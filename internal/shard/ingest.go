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
	"fmt"
	"runtime"
	"strings"
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

// Ingest commits a batch of match pages: documents are prepared outside
// any lock, the batch is WAL-logged (when a WAL is attached) and then
// committed under the write lock as one immutable segment per touched
// shard. Previously-ingested pages with the same IDs are tombstoned
// (upsert). The new documents are searchable, and counted by NumDocs,
// the moment Ingest returns; corpus-wide statistics are maintained
// incrementally and stay integer-exact, so rankings remain byte-identical
// to a from-scratch build over the live documents.
//
// A ctx that is already done returns its error without committing; the
// deadline is NOT otherwise consulted (commits are short and atomic).
func (e *Engine) Ingest(ctx context.Context, pages []*crawler.MatchPage, opts IngestOptions) (IngestResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}
	if len(pages) == 0 {
		return IngestResult{PerShard: make([]int, len(e.base)), Durability: "none"}, nil
	}
	docsByPage := e.prepareDocs(pages, runtime.GOMAXPROCS(0))
	if err := ctx.Err(); err != nil {
		return IngestResult{}, err
	}

	e.mu.Lock()
	committed := len(pages)
	var walErr error
	ack := "none"
	if e.wal != nil {
		ack = "logged"
		switch opts.Atomicity {
		case PerPage:
			committed = 0
			for _, p := range pages {
				rec, err := json.Marshal([]*crawler.MatchPage{p})
				if err == nil {
					err = e.walAppend(rec, opts.Durability)
				}
				if err != nil {
					walErr = fmt.Errorf("shard: WAL append (page %d of %d): %w", committed, len(pages), err)
					break
				}
				committed++
			}
		default:
			rec, err := json.Marshal(pages)
			if err == nil {
				err = e.walAppend(rec, opts.Durability)
			}
			if err != nil {
				committed = 0
				walErr = fmt.Errorf("shard: WAL append: %w", err)
			}
		}
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
	res := e.commitLocked(pages[:committed], docsByPage[:committed])
	res.Durability = ack
	e.mu.Unlock()
	e.met.ingest.ObserveDuration(time.Since(start))

	if opts.Merge == MergeAuto {
		e.nudgeMerger()
	}
	return res, walErr
}

// walAppend routes one record through the durability the caller asked
// for. Write lock held.
func (e *Engine) walAppend(rec []byte, d Durability) error {
	if d == DurAsync {
		return e.wal.AppendAsync(rec)
	}
	return e.wal.Append(rec)
}

// prepareDocs runs the expensive document preparation (extraction,
// population, inference) for every page through fanOut, on at most
// min(workers, GOMAXPROCS) goroutines, outside any engine lock — searches
// and other ingests proceed while it runs. BuildStream passes
// Options.Parallelism, Ingest GOMAXPROCS.
func (e *Engine) prepareDocs(pages []*crawler.MatchPage, workers int) [][]*index.Document {
	docsByPage := make([][]*index.Document, len(pages))
	fanOut(len(pages), workers, func(i int) {
		docsByPage[i] = e.builder.PageDocuments(e.level, pages[i])
	})
	return docsByPage
}

// applyBatch is Ingest without the WAL append — the replay path: the
// records being applied are already durable in the log.
func (e *Engine) applyBatch(pages []*crawler.MatchPage) {
	docsByPage := e.prepareDocs(pages, runtime.GOMAXPROCS(0))
	e.mu.Lock()
	e.commitLocked(pages, docsByPage)
	e.mu.Unlock()
}

// commitLocked is the ingest commit: tombstone each page's previous
// version, append the new documents to per-shard segments (one new
// segment per touched shard, all carrying this batch's segment id), fold
// the segment statistics into the corpus-wide view, and bump the epoch
// when the batch added or tombstoned a document, which evicts every
// cached answer. Write lock required.
//
// Statistics stay integer-exact through any sequence of commits: a
// tombstone subtracts exactly what the document's Add once contributed
// (index.AddDocStats re-analyzes the stored fields), a new segment adds its
// tombstone-aware LocalStats, and integer adds/subtracts commute — so
// the global view always equals a from-scratch recompute over the live
// documents, which is what keeps scatter-gather rankings byte-identical
// to a monolithic build.
func (e *Engine) commitLocked(pages []*crawler.MatchPage, docsByPage [][]*index.Document) IngestResult {
	n := len(e.base)
	res := IngestResult{Pages: len(pages), PerShard: make([]int, n)}
	segID := e.nextSeg
	e.nextSeg++
	res.Segment = segID
	newSubs := make([]*subIndex, n)

	// removed sums what the batch's tombstones take out of the corpus view,
	// subtracted once below: a re-upserted page tombstones ~119 documents,
	// and a CorpusStats apiece was most of this loop.
	removed := index.NewCorpusStats()
	for pi, page := range pages {
		// Tombstone the page's previous version. Its statistics leave the
		// corpus view — except for documents from THIS batch (a page
		// repeated within one batch), whose statistics have not been
		// merged yet and are excluded by the segment's LocalStats below.
		for _, gid := range e.pageGIDs[page.ID] {
			ref := e.byGID[gid]
			if ref.sub == nil {
				continue
			}
			ix := ref.sub.ix
			if ix.IsDeleted(ref.local) {
				continue
			}
			if ref.sub.segID != segID {
				ix.AddDocStats(removed, ref.local)
			}
			ix.Delete(ref.local)
			e.liveDocs--
			res.Tombstones++
		}

		s := shardFor(page.ID, n)
		var gids []int
		for _, d := range docsByPage[pi] {
			sub := newSubs[s]
			if sub == nil {
				ix := index.New(e.builder.Analyzer)
				ix.SetExhaustive(e.exhaustive)
				ix.SetCorpusStats(e.global)
				sub = &subIndex{ix: ix, segID: segID}
				newSubs[s] = sub
				e.segs[s] = append(e.segs[s], sub)
			}
			gid := len(e.byGID)
			local := sub.ix.Add(d)
			sub.gids = append(sub.gids, gid)
			e.byGID = append(e.byGID, docRef{sub: sub, local: local})
			gids = append(gids, gid)
			res.Docs++
			res.PerShard[s]++
		}
		// Assigning to a string key replaces the stored key too, so every
		// assignment clones: a parsed page's ID is a view of its whole HTML
		// (crawler.ParseMatchPage), which the map would otherwise pin.
		e.pageGIDs[strings.Clone(page.ID)] = gids
	}

	e.global.Remove(removed)
	for _, sub := range newSubs {
		if sub != nil {
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
