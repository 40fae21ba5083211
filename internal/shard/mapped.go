package shard

// Mapped serving glue: lifecycle of the byte regions behind mapped base
// segments. Every snapshot read maps the file and checks the mapped bytes
// (mapShardFile); a heap load decodes them and unmaps at once, a mapped
// one hands the same bytes to the index layer (internal/index OpenMapped),
// which serves queries from them. This file decides when they live and
// die:
//
//   - LoadWith(Mapped) keeps each manifest-named snapshot file mapped; the
//     release func rides on the base subIndex.
//   - A compaction pass persists its output as a scratch segment file
//     ("<base>.mapseg000001.shard002") and reopens it through the same
//     reader, so a mapped engine stays mapped across merges instead of
//     accreting heap.
//   - Save re-anchors every base on the generation it just committed
//     and retires scratch files.
//   - Close unmaps whatever is still live.
//
// Unmap safety: a base swap happens under the engine write lock, and
// every search path holds the read lock for its entire duration (the
// deadline scatter's drain goroutine keeps holding it until straggler
// shards finish), so once a swap lands no reader can still touch the
// old region. Merges read sources off-lock, but only while holding
// mergeOpMu, and Close takes mergeOpMu before it unmaps, so no merge —
// one a commit started, a caller's ForceMerge or a Save's — outlives the
// mapping it reads; a pass that takes mergeOpMu after Close finds the
// engine closed and does nothing. Data flowing out of a mapped
// index — merged postings, materialized stored documents — is always
// fresh heap memory (the block reader decodes, it never aliases), so
// nothing retains mapped bytes past the release.

import (
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/index"
)

// releaseSub unmaps a retired sub's byte region and removes its scratch
// file, if it has either. Callers must guarantee no reader can still
// reference the sub (see the unmap-safety note above).
func releaseSub(sub *subIndex) {
	if sub == nil || sub.release == nil {
		return
	}
	sub.release()
	sub.release = nil
	if sub.scratch != "" {
		os.Remove(sub.scratch)
	}
}

// Close releases the engine's resources: a running compaction pass,
// ForceMerge or Save is waited for, the ingest WAL synced and detached,
// the query cache dropped, and every mapped base region unmapped.
// Heap-only engines may call it too. After Close, Search, Save and
// Ingest return an error, ForceMerge and a pending compaction pass do
// nothing, and a hit read finds no document (Doc, Meta).
func (e *Engine) Close() error {
	// Save's lock order: mergeOpMu, then mu (CloseWAL and the unmap).
	e.mergeOpMu.Lock()
	defer e.mergeOpMu.Unlock()
	err := e.CloseWAL()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.cache, e.flight = nil, nil
	for s := range e.base {
		releaseSub(e.base[s])
	}
	return err
}

// adoptMappedBaseLocked swaps shard s's base for a mapped view of the
// snapshot file just written for it — same documents, same local IDs,
// same bytes, so nothing observable changes: no statistics move, no
// epoch bumps, no cache entry is touched. Best-effort: on any failure
// the heap base stays. Write lock required; the base must be clean
// (Save compacts first) so its local IDs equal the file's.
func (e *Engine) adoptMappedBaseLocked(s int, path string, mf manifestEntry) {
	nb, err := readShardFile(path, e.base[s].ix.Analyzer(), mf, true)
	if err != nil || !slices.Equal(nb.gids, e.base[s].gids) {
		releaseSub(nb)
		return
	}
	old := e.base[s]
	nb.ix.SetCorpusStats(e.global)
	nb.ix.SetExhaustive(e.exhaustive)
	for local, gid := range nb.gids {
		e.byGID[gid] = docRef{sub: nb, local: local}
	}
	e.base[s] = nb
	releaseSub(old)
}

// writeMappedSeg persists a freshly merged index as a mapped scratch
// segment — tmp + fsync + rename, then a reopen through the one snapshot
// reader, the same discipline as a snapshot — and returns the base-ready sub,
// or nil to signal the caller to fall back to serving the heap merge
// (the merge itself never fails here, only the mapping of it). Scratch
// files are invisible to Load (the manifest never names them) and are
// retired by the next Save or by releaseSub.
func (e *Engine) writeMappedSeg(s int, merged *index.Index, gids []int) *subIndex {
	path := fmt.Sprintf("%s.mapseg%06d.shard%03d", e.mappedBase, e.mapSeq.Add(1), s)
	size, sum, err := writeShardFile(path, gids, func(w io.Writer) ([]byte, error) {
		return merged.EncodeWithTOC(w, tocColumns...)
	})
	if err != nil {
		os.Remove(path + ".tmp")
		return nil
	}
	sub, err := readShardFile(path, merged.Analyzer(), manifestEntry{Name: path, Size: size, CRC: sum}, true)
	if err != nil {
		os.Remove(path)
		return nil
	}
	sub.scratch = path
	return sub
}
