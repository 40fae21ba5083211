package shard

// Crash-safe persistence for the sharded engine. Three cooperating
// pieces give the kill-at-any-point guarantee:
//
//   - Shard snapshots: each shard's codec stream rides inside a
//     versioned envelope with a CRC32 trailer, written tmp + fsync +
//     rename so a crash never tears a live file. One function reads
//     them back (mapShardFile): it maps the file and checks the mapped
//     bytes, which a heap load then decodes and a mapped load serves.
//   - The manifest (manifest.go): the commit point naming every shard
//     file with its size and checksum, committed last. Load reads only
//     what the manifest names — stale shard files from an earlier,
//     wider save are invisible, fixing the read-until-missing bug where
//     a shrink-then-reload resurrected orphan shards.
//   - The ingest WAL (internal/wal): Ingest batches appended before
//     memory mutates, replayed on Load past the manifest's generation,
//     rotated on Save.
//
// Each of these formats has exactly one readable version — envelope v5
// around codec v4, the manifest layout, the page-batch WAL record. A file
// of any other version, older or newer, is refused as
// ErrSnapshotUnknownVersion: never quarantined, reported UNVERIFIABLE.
//
// Corruption degrades instead of killing the service: a shard that
// fails verification is quarantined (renamed *.corrupt) and replaced by
// an empty placeholder, the engine starts degraded with the loss named
// in every SearchReport, and Fsck/socindex -verify audits a snapshot
// offline without mutating it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/semindex"
	"repro/internal/wal"
)

// Snapshot envelope (version 5): a header of magic, envelope version and
// the index codec number of the payload; the payload, the bare codec
// stream (the manifest alone records the level); a metadata region; then a
// trailer of metaLen u64, metaCRC u32, payloadLen u64, payloadCRC u32. The
// metadata region holds the documents' global-ID list (appendGIDs), then
// the payload's mapped table of contents; version 4 files had no list, as
// their documents carried their global IDs in a stored field. The trailer
// lengths cross-check the file size, so truncation is caught before any
// CRC is computed. The manifest CRC covers the payload alone. Carrying the versions in the header lets
// recovery and fsck tell "another version" apart from "damaged" without
// decoding a byte of payload, and the TOC is what lets LoadWith serve the
// file memory-mapped in O(manifest) time.
const (
	snapMagic      = "SSNP"
	snapVersion    = 5
	snapHeaderLen  = 4 + 4 + 4
	snapTrailerLen = 8 + 4 + 8 + 4
)

// ErrSnapshotUnknownVersion reports a shard snapshot whose envelope
// version or payload codec is not the one this build reads — written by
// a newer build, or by an older one below the compatibility floor. The
// file is not corrupt — quarantining it would destroy data the matching
// binary recovers losslessly — so Load refuses the snapshot outright and
// Fsck reports it unverifiable rather than damaged.
var ErrSnapshotUnknownVersion = errors.New("shard: snapshot version not readable by this build")

// shardGenPath names one shard file of one snapshot generation:
// "<base>.g000002.shard001". Stamping the generation into the name is
// what makes Save crash-safe end to end — the new generation's files
// land under fresh names, so a crash after the renames but before the
// manifest commit leaves the old manifest's files untouched and the old
// snapshot fully recoverable.
func shardGenPath(base string, gen uint64, i int) string {
	return fmt.Sprintf("%s.g%06d.shard%03d", base, gen, i)
}

// Save checkpoints the engine atomically. Every shard is written to a
// temporary file, fsynced and renamed into place; the manifest — the
// commit point — is written last the same way. Only then does the
// attached WAL (if any) rotate to the new generation and stale shard
// files from an earlier, wider save get removed. A crash at any instant
// therefore leaves either the previous snapshot (plus its still-valid
// WAL) or the new one — never a torn mix.
//
// Save refuses to checkpoint a degraded engine (ErrDegraded): writing a
// clean manifest over quarantined shards would make the data loss
// permanent and invisible.
//
// A checkpoint compacts first: every shard's unmerged segments and
// tombstones are folded into its base, so the snapshot is always
// base-only — the WAL rotation then means recovery replays exactly the
// batches ingested after this Save, never ones already merged in. When
// compaction leaves holes in the global ID space (tombstoned documents
// dropped for good), the manifest records the next unused ID so reloads
// keep assigning fresh IDs instead of reusing the holes.
func (e *Engine) Save(base string) error {
	// Same order as mergeShards: the merge-operation lock first, then the
	// engine lock. Holding mergeOpMu means no other compaction (the
	// merger's, a ForceMerge) is mid-flight while the checkpoint compacts
	// and writes.
	e.mergeOpMu.Lock()
	defer e.mergeOpMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.quarantined) > 0 {
		return fmt.Errorf("%w: shards %v", ErrDegraded, e.quarantined)
	}
	e.compactAllLocked()
	newGen := e.gen + 1
	m := &manifest{Generation: newGen, Level: e.level, Codec: index.CodecVersionCurrent}
	if len(e.byGID) != e.liveDocs {
		// Holes: compaction dropped tombstoned documents whose IDs must
		// never be reassigned (rankings tie-break on them).
		m.NextGID = uint64(len(e.byGID))
	}
	if e.wal != nil {
		m.WAL = filepath.Base(WALPath(base))
	}
	// The shard files are encoded and written concurrently; m.Files keeps
	// shard order and the first error waits for every writer.
	files := make([]manifestEntry, len(e.base))
	errs := make([]error, len(e.base))
	fanOut(len(e.base), len(e.base), func(i int) {
		path := shardGenPath(base, newGen, i)
		size, sum, err := writeShardFile(path, e.base[i].gids, func(w io.Writer) ([]byte, error) {
			// On an already-mapped base this whole save is a raw byte copy
			// of the mapped region.
			return e.base[i].ix.EncodeWithTOC(w, tocColumns...)
		})
		files[i], errs[i] = manifestEntry{Name: filepath.Base(path), Size: size, CRC: sum}, err
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	m.Files = files
	// The renames above must be durable before the manifest can name
	// their targets.
	if err := syncDir(filepath.Dir(ManifestPath(base))); err != nil {
		return err
	}
	if err := writeManifest(base, m); err != nil {
		return err
	}
	e.gen = newGen
	if e.wal != nil {
		// Every record in the log is folded into the snapshot just
		// committed; start the next generation's log.
		if err := e.wal.Rotate(newGen); err != nil {
			return fmt.Errorf("shard: rotating WAL: %w", err)
		}
	}
	if e.mappedBase != "" {
		// A mapped engine re-anchors every base on the generation just
		// committed: the compaction above produced heap bases whose bytes
		// are exactly what landed on disk, so adopting the mapped view
		// frees that heap (and retires any merger scratch files) without
		// changing anything observable. Best-effort per shard — a shard
		// that fails to map simply keeps serving from the heap.
		for i := range e.base {
			e.adoptMappedBaseLocked(i, filepath.Join(filepath.Dir(base), m.Files[i].Name), m.Files[i])
		}
	}
	removeStaleSnapshotFiles(base, m)
	return nil
}

// compactAllLocked folds every shard's segments and tombstones into its
// base synchronously — the checkpoint-time compaction Save runs so
// snapshots are always base-only. The shards' merges run concurrently and
// install in shard order (compactInBatches). Write lock AND mergeOpMu
// required (no concurrent readers or background merge), so MergeIndexes
// can read the live tombstone bits directly.
func (e *Engine) compactAllLocked() {
	var slots []int
	for s := range e.base {
		if e.dirtyLocked(s) {
			slots = append(slots, s)
		}
	}
	pms := make([]*pendingMerge, len(e.base))
	compactInBatches(slots, func(s int) {
		pm := &pendingMerge{start: time.Now(), subs: e.subsLocked(s)}
		// Heap output even on a mapped engine: Save is about to write the
		// merged bytes and then re-anchor the base on the committed file.
		pm.merge(nil)
		pms[s] = pm
	}, func(s int) {
		e.applyMergedLocked(s, pms[s])
		pms[s] = nil
	})
}

// writeShardFile writes one enveloped, checksummed shard snapshot via
// tmp + fsync + rename, returning the final file size and payload CRC.
// gids are the payload documents' global IDs, ascending; save writes the
// payload and returns its mapped TOC.
func writeShardFile(path string, gids []int, save func(io.Writer) ([]byte, error)) (int64, uint32, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	// bw keeps its first write error; Flush returns it.
	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [snapHeaderLen]byte
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], snapVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], index.CodecVersionCurrent)
	bw.Write(hdr[:])
	crc := crc32.NewIEEE()
	cw := &countingWriter{}
	toc, err := save(io.MultiWriter(bw, crc, cw))
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	meta := append(appendGIDs(nil, gids), toc...)
	bw.Write(meta)
	var trailer [snapTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(len(meta)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.ChecksumIEEE(meta))
	binary.LittleEndian.PutUint64(trailer[12:20], uint64(cw.n))
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(trailer[20:24], sum)
	bw.Write(trailer[:])
	if err := errors.Join(bw.Flush(), f.Sync(), f.Close()); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, 0, err
	}
	return snapHeaderLen + cw.n + int64(len(meta)) + snapTrailerLen, sum, nil
}

// appendGIDs appends the envelope's global-ID list, ascending IDs: its
// byte length, then each ID's distance from the one before it (the first
// ID's from −1), all uvarints.
func appendGIDs(b []byte, gids []int) []byte {
	var list []byte
	prev := -1
	for _, gid := range gids {
		list = binary.AppendUvarint(list, uint64(gid-prev))
		prev = gid
	}
	return append(binary.AppendUvarint(b, uint64(len(list))), list...)
}

// readGIDs splits an envelope's metadata region into its global-ID list
// and the TOC after it. The list must hold docs IDs, strictly ascending
// and below 2^31.
func readGIDs(meta []byte, docs int) (gids []int, toc []byte, err error) {
	n, k := binary.Uvarint(meta)
	if k <= 0 || n > uint64(len(meta)-k) {
		return nil, nil, errors.New("global-ID list overruns the metadata region")
	}
	list, toc := meta[k:k+int(n)], meta[k+int(n):]
	gids = make([]int, 0, min(docs, len(list)))
	for prev := -1; len(list) > 0; {
		d, k := binary.Uvarint(list)
		if k <= 0 || d == 0 || d > uint64(math.MaxInt32-prev) {
			return nil, nil, fmt.Errorf("global-ID list truncated or not strictly ascending at ID %d", len(gids))
		}
		prev += int(d)
		gids, list = append(gids, prev), list[k:]
	}
	if len(gids) != docs {
		return nil, nil, fmt.Errorf("global-ID list holds %d IDs for %d documents", len(gids), docs)
	}
	return gids, toc, nil
}

// countingWriter counts payload bytes for the envelope trailer.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// mapShardFile is the one reader of snapshot files. It opens path, checks
// its size against the manifest entry, maps it, and checks the envelope
// over the mapped bytes — header, trailer, payload CRC, metadata CRC, and
// the global-ID list against the payload's document count — before it
// returns the payload and its mapped TOC as views of the mapping, with the
// decoded IDs. release unmaps the views; on error nothing stays mapped. So
// every load and Fsck checks exactly the bytes a mapped engine goes on to
// serve, and a heap load decodes nothing before the CRC verdict. An
// envelope version or codec other than the one this build reads fails with
// ErrSnapshotUnknownVersion, everything else that is wrong with the file
// with ErrSnapshotCorrupt.
func mapShardFile(path string, want manifestEntry) (payload, toc []byte, gids []int, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if st.Size() != want.Size {
		return nil, nil, nil, nil, fmt.Errorf("%w: size %d, manifest says %d", ErrSnapshotCorrupt, st.Size(), want.Size)
	}
	m, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("shard: mapping %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			unmap()
		}
	}()
	if len(m) < snapHeaderLen {
		return nil, nil, nil, nil, fmt.Errorf("%w: %d bytes is shorter than an envelope header", ErrSnapshotCorrupt, len(m))
	}
	if string(m[:4]) != snapMagic {
		return nil, nil, nil, nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, m[:4])
	}
	if version := binary.LittleEndian.Uint32(m[4:8]); version != snapVersion {
		return nil, nil, nil, nil, fmt.Errorf("%w: envelope version %d, this build reads %d",
			ErrSnapshotUnknownVersion, version, snapVersion)
	}
	switch codec := binary.LittleEndian.Uint32(m[8:12]); {
	case codec == 0:
		return nil, nil, nil, nil, fmt.Errorf("%w: codec 0 in envelope header", ErrSnapshotCorrupt)
	case codec != index.CodecVersionCurrent:
		return nil, nil, nil, nil, fmt.Errorf("%w: payload codec %d, this build reads %d",
			ErrSnapshotUnknownVersion, codec, index.CodecVersionCurrent)
	}
	// body is what lies between header and trailer: payload, then metadata.
	body := int64(len(m)) - snapHeaderLen - snapTrailerLen
	if body < 0 {
		return nil, nil, nil, nil, fmt.Errorf("%w: %d bytes is shorter than an empty envelope", ErrSnapshotCorrupt, len(m))
	}
	trailer := m[len(m)-snapTrailerLen:]
	metaLen := binary.LittleEndian.Uint64(trailer[0:8])
	metaCRC := binary.LittleEndian.Uint32(trailer[8:12])
	if metaLen == 0 || metaLen > uint64(body) {
		return nil, nil, nil, nil, fmt.Errorf("%w: trailer claims %d metadata bytes, file holds %d",
			ErrSnapshotCorrupt, metaLen, body)
	}
	payloadLen := binary.LittleEndian.Uint64(trailer[12:20])
	if payloadLen != uint64(body)-metaLen {
		return nil, nil, nil, nil, fmt.Errorf("%w: trailer claims %d payload bytes, file holds %d",
			ErrSnapshotCorrupt, payloadLen, uint64(body)-metaLen)
	}
	if trailerCRC := binary.LittleEndian.Uint32(trailer[20:24]); trailerCRC != want.CRC {
		return nil, nil, nil, nil, fmt.Errorf("%w: trailer CRC %08x, manifest says %08x", ErrSnapshotCorrupt, trailerCRC, want.CRC)
	}
	payload = m[snapHeaderLen : snapHeaderLen+payloadLen]
	meta := m[snapHeaderLen+payloadLen : snapHeaderLen+payloadLen+metaLen]
	if got := crc32.ChecksumIEEE(payload); got != want.CRC {
		return nil, nil, nil, nil, fmt.Errorf("%w: payload CRC %08x, manifest says %08x", ErrSnapshotCorrupt, got, want.CRC)
	}
	if got := crc32.ChecksumIEEE(meta); got != metaCRC {
		return nil, nil, nil, nil, fmt.Errorf("%w: metadata CRC %08x, trailer says %08x", ErrSnapshotCorrupt, got, metaCRC)
	}
	docs, err := index.StreamDocs(payload)
	if err == nil {
		gids, toc, err = readGIDs(meta, docs)
	}
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return payload, toc, gids, unmap, nil
}

// readShardFile opens one verified snapshot file (mapShardFile) as a base
// sub-index holding the file's global IDs. Mapped, the index serves the
// file's bytes — postings decoded lazily, block by block, stored fields on
// first hit — and the sub's release unmaps them (releaseSub); the index must
// not be used after. Otherwise the index is decoded onto the heap and the
// mapping is already released.
func readShardFile(path string, analyzer index.Analyzer, want manifestEntry, mapped bool) (*subIndex, error) {
	payload, toc, gids, release, err := mapShardFile(path, want)
	if err != nil {
		return nil, err
	}
	sub := &subIndex{gids: gids}
	if mapped {
		sub.ix, err = index.OpenMapped(payload, toc, analyzer)
	} else {
		sub.ix, err = index.Decode(bytes.NewReader(payload), analyzer)
	}
	if mapped && err == nil {
		sub.release = release
	} else {
		release()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return sub, nil
}

// removeStaleSnapshotFiles deletes every shard file the just-committed
// manifest does not name: prior generations, merger scratch segments and
// leftover *.tmp debris. Runs strictly after the manifest commit, so a
// crash before it leaves the previous snapshot whole. Best-effort: Load
// ignores unmanifested files anyway, this just reclaims the space.
func removeStaleSnapshotFiles(base string, m *manifest) {
	live := make(map[string]bool, len(m.Files))
	for _, mf := range m.Files {
		live[mf.Name] = true
	}
	dir := filepath.Dir(base)
	// Merger scratch segments (*.mapseg*) are never manifest-named; any
	// still mapped keep their pages through the unlink (inode semantics),
	// and Save just re-anchored every base on manifest files anyway.
	for _, pattern := range []string{base + ".g*.shard*", base + ".mapseg*"} {
		names, err := filepath.Glob(pattern)
		if err != nil {
			continue
		}
		for _, name := range names {
			// Quarantined files are operator evidence, not debris.
			if strings.HasSuffix(name, ".corrupt") || live[filepath.Base(name)] {
				continue
			}
			os.Remove(filepath.Join(dir, filepath.Base(name)))
		}
	}
	os.Remove(ManifestPath(base) + ".tmp")
}

// QuarantinedShard names one snapshot file Load rejected.
type QuarantinedShard struct {
	// Shard is the shard index the file held.
	Shard int
	// File is the quarantined filename (after the *.corrupt rename).
	File string
	// Err is the verification failure, wrapping ErrSnapshotCorrupt.
	Err error
}

// LoadReport describes how a recovery went: the generation restored,
// what was quarantined, and how much WAL tail was replayed.
type LoadReport struct {
	// Generation is the manifest generation the snapshot restored.
	Generation uint64
	// Quarantined lists the shard files that failed verification and
	// were replaced by empty placeholders. Non-empty means the engine
	// serves degraded.
	Quarantined []QuarantinedShard
	// WALReplayed counts ingest records re-applied from the WAL tail.
	WALReplayed int
	// WALTorn is true when the WAL ended mid-record (the expected crash
	// artifact) and the tear was truncated away.
	WALTorn bool
	// WALGenMismatch is true when a WAL existed but belonged to another
	// snapshot generation and was skipped.
	WALGenMismatch bool
	// MappedFallback is never set: every readable snapshot file carries
	// the TOC a mapped load needs, so no shard falls back to the heap. It
	// stays only because the repository benchmark (benchmark/) reads it.
	MappedFallback []int
}

// Load reconstructs an engine from a Save checkpoint: the manifest is
// read and checksum-verified, each named shard file is verified and
// decoded, and the ingest WAL tail past the manifest's generation is
// replayed (truncating at the first torn record), so the result is
// byte-identical — documents, statistics, rankings — to the engine that
// was saved plus every acknowledged Ingest since.
//
// Corrupt pieces degrade instead of failing where possible: a shard
// file that fails verification is quarantined (renamed *.corrupt) and
// the engine starts without it, serving every remaining shard and
// naming the loss in LoadReport and every SearchReport. A corrupt
// manifest, a WAL record that will not decode, or a snapshot with no
// intact shard at all is unrecoverable and returns a typed error
// (ErrManifestCorrupt, ErrWALCorrupt, ErrSnapshotCorrupt). A shard file
// of another snapshot version fails the whole load with
// ErrSnapshotUnknownVersion and stays where it is.
func Load(base string, analyzer index.Analyzer) (*Engine, error) {
	return LoadWith(base, analyzer, LoadOptions{})
}

// LoadOptions selects how LoadWith materializes shard snapshots.
type LoadOptions struct {
	// Mapped serves each shard directly from its snapshot file's bytes
	// (memory-mapped on linux) instead of decoding it onto the heap:
	// open-time work drops from O(postings) to O(TOC), postings decode
	// lazily block by block as queries touch them, stored fields inflate
	// on the first hit, and the OS pages cold index regions in and out —
	// so the index may exceed RAM. Both modes read a shard file the same
	// way — map it, CRC the payload and TOC — and differ only after the
	// check: a heap load decodes the checked bytes and unmaps them, a
	// mapped load serves them. Rankings are byte-identical to a heap
	// load. Engines loaded mapped should be released with Close.
	Mapped bool
}

// LoadWith is Load with explicit load options.
func LoadWith(base string, analyzer index.Analyzer, opts LoadOptions) (*Engine, error) {
	m, err := readManifest(base)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(base)
	rep := LoadReport{Generation: m.Generation}
	subs := make([]*subIndex, len(m.Files))
	var quarantined []int
	for i, mf := range m.Files {
		path := filepath.Join(dir, mf.Name)
		sub, err := readShardFile(path, analyzer, mf, opts.Mapped)
		if err != nil {
			if errors.Is(err, ErrSnapshotUnknownVersion) {
				// Not damage: another build wrote this file. Renaming it
				// *.corrupt and serving without it would turn a version
				// skew into data loss; refuse the load instead.
				releaseSubs(subs)
				return nil, fmt.Errorf("shard %d (%s): %w", i, mf.Name, err)
			}
			name := quarantine(path)
			quarantined = append(quarantined, i)
			rep.Quarantined = append(rep.Quarantined, QuarantinedShard{Shard: i, File: name, Err: err})
			sub = &subIndex{ix: index.New(analyzer)}
		}
		subs[i] = sub
	}
	if len(quarantined) == len(subs) {
		return nil, fmt.Errorf("%w: no intact shard among %d at %s", ErrSnapshotCorrupt, len(m.Files), base)
	}
	e, err := fromShards(m.Level, subs, quarantined, int(m.NextGID))
	if err != nil {
		releaseSubs(subs)
		return nil, err
	}
	if opts.Mapped {
		// Arms the mapped write side: the merger persists compaction
		// output as mapped scratch segments and Save re-anchors bases on
		// the committed generation. Set before serving, read-only after.
		e.mappedBase = base
	}
	e.gen = m.Generation
	e.met.quarantined.Add(uint64(len(quarantined)))

	// Replay the ingest log whether or not the manifest names it: a WAL
	// attached after the snapshot was saved is exactly as authoritative
	// as one that existed at save time, and the generation gate already
	// rejects logs from another snapshot lineage. A missing file is an
	// empty log. Save compacts before rotating, so every record here is a
	// batch ingested after the snapshot — nothing replays twice.
	res, err := wal.Replay(WALPath(base), m.Generation, obs.Default, func(rec []byte) error {
		pages, err := decodeWALRecord(rec)
		if err != nil {
			return err
		}
		e.applyBatch(pages)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.WALReplayed = res.Records
	rep.WALTorn = res.Torn
	rep.WALGenMismatch = res.GenMismatch
	e.loadRep = rep
	return e, nil
}

// decodeWALRecord decodes one ingest log record: a JSON array of pages.
// Anything else is ErrWALCorrupt.
func decodeWALRecord(rec []byte) ([]*crawler.MatchPage, error) {
	var pages []*crawler.MatchPage
	if err := json.Unmarshal(rec, &pages); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return pages, nil
}

// quarantine moves a rejected snapshot file aside so the next Save (or
// an operator) cannot mistake it for live data, returning the name it
// ended up under. Best-effort: when the rename fails the original name
// is returned and Load simply ignores the file.
func quarantine(path string) string {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		return filepath.Base(path)
	}
	return filepath.Base(dst)
}

// releaseSubs unmaps whatever a failed mapped load already mapped.
func releaseSubs(subs []*subIndex) {
	for _, sub := range subs {
		releaseSub(sub)
	}
}

// fromShards assembles a level's engine around already-loaded shard bases
// (snapshots are always base-only), each holding its documents' global IDs
// ascending; the engine owns their mapped regions from here and releases
// them on Close or when a merge retires the base. quarantined lists shard
// slots holding empty placeholders for files Load rejected; with
// quarantined slots the global docID space keeps the holes the lost
// documents occupied (Doc returns nil for them) instead of silently
// renumbering the survivors. nextGID, when > 0, is the manifest's recorded
// next unused global ID: the snapshot's ID space legitimately has holes
// (compacted tombstones), and new ingests must start numbering there.
func fromShards(level semindex.Level, subs []*subIndex, quarantined []int, nextGID int) (*Engine, error) {
	e := newEngine(level, semindex.NewBuilder(), len(subs))
	e.quarantined = append([]int(nil), quarantined...)
	sort.Ints(e.quarantined)
	docs, maxGID := 0, -1
	for _, sub := range subs {
		docs += len(sub.gids)
		if len(sub.gids) > 0 {
			maxGID = max(maxGID, sub.gids[len(sub.gids)-1])
		}
	}
	switch {
	case nextGID > 0:
		// The manifest vouches for holes below nextGID; an ID at or above
		// it still means missing documents.
		if maxGID >= nextGID {
			return nil, fmt.Errorf("shard: global id %d outside recorded id space %d", maxGID, nextGID)
		}
	case len(e.quarantined) == 0 && maxGID >= docs:
		// A complete hole-free snapshot must use exactly the IDs
		// 0..docs-1; a larger ID means a document went missing without a
		// quarantine or a nextgid record to explain it.
		return nil, fmt.Errorf("shard: global id %d outside %d documents", maxGID, docs)
	}
	e.byGID = make([]docRef, max(docs, maxGID+1, nextGID))
	for s, sub := range subs {
		e.base[s] = sub
		for local, gid := range sub.gids {
			if e.byGID[gid].sub != nil {
				return nil, fmt.Errorf("shard %d doc %d: duplicate global id %d", s, local, gid)
			}
			e.byGID[gid] = docRef{sub: sub, local: local}
		}
	}
	e.liveDocs = docs
	// Rebuild the page -> live-documents map Ingest's upsert path
	// consults, in ascending global ID order (documents of one page are
	// contiguous, so per-page order is preserved).
	for gid, ref := range e.byGID {
		if ref.sub == nil {
			continue
		}
		if pid := ref.sub.ix.Meta(ref.local, semindex.MetaMatchID); pid != "" {
			e.pageGIDs[pid] = append(e.pageGIDs[pid], gid)
		}
	}
	e.exchangeStats()
	return e, nil
}

// AttachWAL opens (or creates) the ingest write-ahead log for base and
// arms Ingest's append-before-mutate path. Call after Load — the log
// then continues right after the records Load just replayed — or after
// Build+Save for a fresh engine. A log left by another snapshot
// generation is reset, since its records belong to a different lineage.
func (e *Engine) AttachWAL(base string, opts wal.Options) error {
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		return errors.New("shard: WAL already attached")
	}
	l, err := wal.Open(WALPath(base), e.gen, opts)
	if err != nil {
		return err
	}
	e.wal = l
	return nil
}

// CloseWAL syncs and detaches the ingest log (no-op when none is
// attached). Call on shutdown after the final checkpoint.
func (e *Engine) CloseWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	e.wal = nil
	return err
}

// FsckFile is one file's verdict in an Fsck report.
type FsckFile struct {
	Name string
	Size int64
	CRC  uint32
	OK   bool
	// Unverifiable marks a file this build cannot audit — an envelope
	// version or payload codec other than the one it reads. Distinct
	// from a failed verdict: the file may be perfectly intact.
	Unverifiable bool
	// Detail explains a failed or unverifiable verdict.
	Detail string
}

// FsckReport is the offline integrity audit of one snapshot base:
// manifest, every named shard file, and the WAL. Read-only — unlike
// Load it neither quarantines nor truncates.
type FsckReport struct {
	Base       string
	Generation uint64
	Level      string
	// Codec is the index codec the manifest records for the snapshot's
	// payloads (0 when the manifest carries no codec line).
	Codec      uint32
	Files      []FsckFile
	WAL        string
	WALRecords int
	WALTorn    bool
	WALGenOK   bool
	WALDetail  string
	// Errs collects base-level problems (corrupt manifest, nothing to
	// verify). Empty Errs plus all-OK files and an un-torn WAL means
	// the snapshot recovers completely.
	Errs []string
}

// OK reports whether recovery from this snapshot would be complete: no
// base errors, every file intact, no WAL tear.
func (r *FsckReport) OK() bool {
	if len(r.Errs) > 0 || r.WALTorn {
		return false
	}
	for _, f := range r.Files {
		if !f.OK {
			return false
		}
	}
	return true
}

// unverifiableOnly reports whether every failure in the report is a
// file this build cannot read (another envelope or codec version) rather
// than actual damage — the version-skew verdict.
func (r *FsckReport) unverifiableOnly() bool {
	if len(r.Errs) > 0 || r.WALTorn {
		return false
	}
	any := false
	for _, f := range r.Files {
		if !f.OK {
			if !f.Unverifiable {
				return false
			}
			any = true
		}
	}
	return any
}

// String renders the fsck verdicts, one line per artifact.
func (r *FsckReport) String() string {
	codec := ""
	if r.Codec != 0 {
		codec = fmt.Sprintf(", codec v%d", r.Codec)
	}
	out := fmt.Sprintf("fsck %s: generation %d, level %s%s, %d shard file(s)\n",
		r.Base, r.Generation, r.Level, codec, len(r.Files))
	for _, f := range r.Files {
		switch {
		case f.OK:
			out += fmt.Sprintf("  %-28s OK   %9d bytes crc32 %08x\n", f.Name, f.Size, f.CRC)
		case f.Unverifiable:
			out += fmt.Sprintf("  %-28s UNVERIFIABLE  %s\n", f.Name, f.Detail)
		default:
			out += fmt.Sprintf("  %-28s BAD  %s\n", f.Name, f.Detail)
		}
	}
	if r.WAL != "" {
		state := "clean"
		if r.WALTorn {
			state = "TORN TAIL (recovery truncates here)"
		}
		if !r.WALGenOK {
			state = "stale generation (ignored by recovery)"
		}
		out += fmt.Sprintf("  %-28s %d record(s), %s\n", r.WAL, r.WALRecords, state)
		if r.WALDetail != "" {
			out += fmt.Sprintf("    %s\n", r.WALDetail)
		}
	}
	for _, e := range r.Errs {
		out += fmt.Sprintf("  ERROR: %s\n", e)
	}
	switch {
	case r.OK():
		out += "  verdict: OK — recovery is complete and loss-free\n"
	case r.unverifiableOnly():
		out += "  verdict: UNVERIFIABLE — snapshot version not readable by this build; verify with the build that wrote it\n"
	default:
		out += "  verdict: DAMAGED — recovery will degrade or truncate\n"
	}
	return out
}

// Fsck audits a snapshot base offline: manifest checksum, every shard
// file's envelope and payload CRC, and the WAL's record chain. It never
// mutates anything, so it is safe against a base another process
// serves from.
func Fsck(base string) *FsckReport {
	rep := &FsckReport{Base: base}
	m, err := readManifest(base)
	if err != nil {
		rep.Errs = append(rep.Errs, err.Error())
		return rep
	}
	rep.Generation = m.Generation
	rep.Level = string(m.Level)
	rep.Codec = m.Codec
	dir := filepath.Dir(base)
	for _, mf := range m.Files {
		ff := FsckFile{Name: mf.Name, Size: mf.Size, CRC: mf.CRC}
		if _, _, _, release, err := mapShardFile(filepath.Join(dir, mf.Name), mf); err != nil {
			ff.Detail = err.Error()
			ff.Unverifiable = errors.Is(err, ErrSnapshotUnknownVersion)
		} else {
			release()
			ff.OK = true
		}
		rep.Files = append(rep.Files, ff)
	}
	// Audit the ingest log whenever one sits next to the snapshot, named
	// by the manifest or attached later — recovery replays it either way.
	rep.WALGenOK = true
	if _, err := os.Stat(WALPath(base)); err == nil {
		rep.WAL = filepath.Base(WALPath(base))
		res, err := wal.Scan(WALPath(base), int64(m.Generation))
		rep.WALRecords = res.Records
		rep.WALTorn = res.Torn
		rep.WALGenOK = !res.GenMismatch
		if err != nil {
			rep.WALDetail = err.Error()
			rep.Errs = append(rep.Errs, fmt.Sprintf("wal: %v", err))
		}
	}
	return rep
}
