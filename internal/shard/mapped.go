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
//   - A compaction pass writes its output to a file whose name it removes
//     as soon as the file is mapped (mapMerged), so a mapped engine stays
//     mapped across merges instead of accreting heap, and leaves no file.
//   - Save maps each generation file straight back as it writes it, and
//     installs those bases once the manifest commits; a Save that fails
//     before the commit releases them, and the bases it found keep serving.
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
	"errors"
	"io"
	"os"
	"path/filepath"

	"repro/internal/index"
)

// releaseSub unmaps a retired sub's byte region, if it has one. Callers
// must guarantee no reader can still reference the sub (see the
// unmap-safety note above).
func releaseSub(sub *subIndex) {
	if sub == nil || sub.release == nil {
		return
	}
	sub.release()
	sub.release = nil
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

// mapMerged maps a compaction pass's output: it writes merged's envelope
// into a fresh unique file next to the snapshot, maps it through
// readShardFile (size and CRCs checked), and removes the name at once,
// whatever failed. No recovery reads the file, so it is neither synced nor
// renamed. On linux the mapping keeps the inode alive until release;
// elsewhere mapFile has already copied the bytes. nil tells the caller to
// serve the heap merge.
func (e *Engine) mapMerged(merged *index.Index, gids []int) *subIndex {
	f, err := os.CreateTemp(filepath.Dir(e.mappedBase), filepath.Base(e.mappedBase)+".mapseg*")
	if err != nil {
		return nil
	}
	defer os.Remove(f.Name())
	size, sum, err := writeEnvelope(f, gids, func(w io.Writer) ([]byte, error) {
		return merged.EncodeWithTOC(w, tocColumns...)
	})
	if err = errors.Join(err, f.Close()); err != nil {
		return nil
	}
	sub, _ := readShardFile(f.Name(), merged.Analyzer(), manifestEntry{Size: size, CRC: sum}, true)
	return sub
}
