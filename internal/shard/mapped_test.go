package shard

// Mapped-mode tests beyond the composed oracle (oracle_test.go): corruption
// verdicts, Close, raw-copy saves, bookkeeping reads and open allocation.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// saveFixture builds a sharded engine from the fixture pages and
// checkpoints it, returning the engine and the snapshot base path.
func saveFixture(t *testing.T, shards int) (*Engine, string) {
	t.Helper()
	pages, _ := fixture(t)
	e := Build(nil, semindex.FullInf, pages, Options{Shards: shards})
	base := filepath.Join(t.TempDir(), "idx.bin")
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	return e, base
}

// TestMappedLoadCorruptionVerdictParity flips bytes in the payload and
// in the TOC region of one shard file and requires the mapped load to
// reach exactly the heap path's verdict: the shard is quarantined
// (renamed *.corrupt) as DAMAGED — never a panic, never a silently
// wrong index — and the engine serves degraded.
func TestMappedLoadCorruptionVerdictParity(t *testing.T) {
	for name, flip := range map[string]func(data []byte) int{
		"payload": func(data []byte) int { return len(data) / 2 },
		"toc": func(data []byte) int {
			tr := data[len(data)-snapTrailerLen:]
			payloadLen := int(binary.LittleEndian.Uint64(tr[12:20]))
			metaLen := int(binary.LittleEndian.Uint64(tr[0:8]))
			if metaLen == 0 {
				return -1
			}
			return snapHeaderLen + payloadLen + metaLen/2
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, base := saveFixture(t, 3)
			victim := shardGenPath(base, 1, 1)
			patchFile(t, victim, func(data []byte) { data[flip(data)] ^= 0x40 })

			mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
			if err != nil {
				t.Fatalf("mapped load failed outright on one corrupt shard: %v", err)
			}
			defer mapped.Close()
			rep := mapped.LoadReport()
			if len(rep.Quarantined) != 1 || rep.Quarantined[0].Shard != 1 {
				t.Fatalf("quarantined %+v, want exactly shard 1", rep.Quarantined)
			}
			if !errors.Is(rep.Quarantined[0].Err, ErrSnapshotCorrupt) {
				t.Errorf("quarantine error %v does not wrap ErrSnapshotCorrupt", rep.Quarantined[0].Err)
			}
			if _, err := os.Stat(victim); !os.IsNotExist(err) {
				t.Error("corrupt shard file was not quarantined away")
			}
			if _, err := mapped.Search(context.Background(), "goal", SearchOptions{Limit: 5}); err != nil {
				t.Fatalf("degraded mapped engine cannot search: %v", err)
			}
		})
	}
}

// TestMappedCloseReleasesMappings: Close must unmap every base region
// exactly once, and a second Close must be harmless. A heap load holds no
// mapping at all once it returns.
func TestMappedCloseReleasesMappings(t *testing.T) {
	_, base := saveFixture(t, 2)
	heap, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range heap.base {
		if heap.base[s].release != nil {
			t.Fatalf("heap-loaded shard %d still holds its file's mapping", s)
		}
	}
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := range mapped.base {
		if mapped.base[s].release == nil {
			t.Fatalf("shard %d not mapped before Close", s)
		}
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for s := range mapped.base {
		if mapped.base[s].release != nil {
			t.Errorf("shard %d mapping not released by Close", s)
		}
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseWaitsForRunningMerge: Close must not unmap bases a merge may
// still be reading. A running ForceMerge or Save holds mergeOpMu; with the
// test holding it, Close must wait, and finish once it is released.
func TestCloseWaitsForRunningMerge(t *testing.T) {
	_, base := saveFixture(t, 2)
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	mapped.mergeOpMu.Lock()
	closed := make(chan error, 1)
	go func() { closed <- mapped.Close() }()
	select {
	case err := <-closed:
		mapped.mergeOpMu.Unlock()
		t.Fatalf("Close returned (%v) while a merge held mergeOpMu", err)
	case <-time.After(100 * time.Millisecond):
	}
	mapped.mu.RLock()
	for s := range mapped.base {
		if mapped.base[s].release == nil {
			t.Errorf("shard %d unmapped while a merge held mergeOpMu", s)
		}
	}
	mapped.mu.RUnlock()
	mapped.mergeOpMu.Unlock()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for s := range mapped.base {
		if mapped.base[s].release != nil {
			t.Errorf("shard %d mapping not released by Close", s)
		}
	}
}

// TestMappedSaveIsRawCopy documents the clean-shard fast path: saving a
// mapped engine whose shards are clean re-emits the mapped bytes
// verbatim, so the new generation's files differ from the old only in
// name. (With tombstones or segments, Save compacts first and the bytes
// legitimately change.)
func TestMappedSaveIsRawCopy(t *testing.T) {
	_, base := saveFixture(t, 2)
	mapped, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	gen1 := make([][]byte, mapped.NumShards())
	for s := range gen1 {
		if gen1[s], err = os.ReadFile(shardGenPath(base, 1, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mapped.Save(base); err != nil {
		t.Fatal(err)
	}
	for s := range gen1 {
		gen2, err := os.ReadFile(shardGenPath(base, 2, s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gen1[s], gen2) {
			t.Errorf("shard %d: clean mapped re-save changed the file bytes", s)
		}
	}
}

// cachedDocs counts the stored documents every base and segment of e holds
// decoded.
func cachedDocs(e *Engine) int {
	n := 0
	for s, b := range e.base {
		n += b.ix.CachedDocs()
		for _, seg := range e.segs[s] {
			n += seg.ix.CachedDocs()
		}
	}
	return n
}

// TestBookkeepingReadsCacheNoDocuments: the reads that serve no hit — the
// TOC build in EncodeWithTOC on Save, Meta of every document's page ID on
// every load, AddDocStats on every document an upsert tombstones, Related's
// read of its source document — decode stored documents without publishing
// them, on a heap and on a mapped base alike, so none of them leaves the
// corpus in a decode cache. Nor does a search: only reading a hit's document
// caches it, and only on a mapped base.
func TestBookkeepingReadsCacheNoDocuments(t *testing.T) {
	e, base := saveFixture(t, 2)
	if n := cachedDocs(e); n != 0 {
		t.Errorf("Build and Save cached %d documents", n)
	}
	pages, _ := fixture(t)
	for _, mapped := range []bool{false, true} {
		l, err := LoadWith(base, nil, LoadOptions{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		if n := cachedDocs(l); n != 0 {
			t.Errorf("mapped %v: Load cached %d documents", mapped, n)
		}
		res, err := l.Ingest(context.Background(), []*crawler.MatchPage{pages[0]}, IngestOptions{})
		if err != nil || res.Tombstones == 0 {
			t.Fatalf("mapped %v: upsert tombstoned %d documents, err %v", mapped, res.Tombstones, err)
		}
		if n := cachedDocs(l); n != 0 {
			t.Errorf("mapped %v: an upsert of %d documents cached %d", mapped, res.Tombstones, n)
		}
		hits := searchN(l, "goal", 10)
		if n := cachedDocs(l); len(hits) == 0 || n != 0 {
			t.Fatalf("mapped %v: a search served %d hits and cached %d documents", mapped, len(hits), n)
		}
		rel := l.Related(hits[0].DocID, 5)
		if n := cachedDocs(l); len(rel) == 0 || n != 0 {
			t.Errorf("mapped %v: Related served %d hits and cached %d documents", mapped, len(rel), n)
		}
		// Reading a hit's document is what caches it, on a mapped base.
		for _, h := range hits {
			h.Doc()
		}
		if n := cachedDocs(l); mapped != (n > 0) || n > len(hits) {
			t.Errorf("mapped %v: reading %d hits' documents cached %d", mapped, len(hits), n)
		}
		l.Close()
	}
}

// openAllocBytes is the heap LoadWith allocates (runtime TotalAlloc) to
// open the snapshot at base, heap-decoded or mapped.
func openAllocBytes(t *testing.T, base string, mapped bool) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := LoadWith(base, nil, LoadOptions{Mapped: mapped})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	return after.TotalAlloc - before.TotalAlloc
}

// TestMappedOpenAllocatesLessPerDocThanDecode bounds the heap a mapped
// open spends per document against a heap decode of the same snapshot.
// Open-time work of a mapped load is O(TOC) plus the per-document ID
// bookkeeping every engine keeps, so the slope is what matters: the
// allocation a mapped open adds per added document must be at most a
// third of what the heap decode adds, and at most maxMappedPerDoc in
// absolute terms. Measured on two-shard FULL_INF snapshots of 716 and
// 2,865 documents: 435 against 2,145 B/doc (0.20) when the relative check
// was set; 418 against 1,478 before a field's boost column collapsed to
// one value while every document shares it, 238 against 1,378 after, and
// 192 against 1,350 once global IDs left the TOC for the envelope's ID list
// and the TOC's string columns shared one string per distinct value. The
// ceiling leaves a fifth again as much room over 192. Allocation is
// counted, not timed, so the gate is deterministic.
func TestMappedOpenAllocatesLessPerDocThanDecode(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mapped opens read the whole file onto the heap without mmap")
	}
	const maxMappedPerDoc = 230
	type point struct {
		docs         int
		heap, mapped uint64
	}
	var pts []point
	for _, matches := range []int{6, 24} {
		c := soccer.Generate(soccer.Config{Matches: matches, Seed: 42, NarrationsPerMatch: 80, PaperCoverage: true})
		e := Build(nil, semindex.FullInf, crawler.PagesFromCorpus(c), Options{Shards: 2})
		base := filepath.Join(t.TempDir(), "idx.bin")
		if err := e.Save(base); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{
			docs:   e.NumDocs(),
			heap:   openAllocBytes(t, base, false),
			mapped: openAllocBytes(t, base, true),
		})
	}
	small, large := pts[0], pts[1]
	added := float64(large.docs - small.docs)
	heapPerDoc := (float64(large.heap) - float64(small.heap)) / added
	mappedPerDoc := (float64(large.mapped) - float64(small.mapped)) / added
	t.Logf("%d → %d docs: heap decode %.0f B/doc, mapped open %.0f B/doc (%.2f)",
		small.docs, large.docs, heapPerDoc, mappedPerDoc, mappedPerDoc/heapPerDoc)
	if mappedPerDoc*3 > heapPerDoc {
		t.Errorf("mapped open grows %.0f B/doc against the heap decode's %.0f; want at most a third",
			mappedPerDoc, heapPerDoc)
	}
	// The race detector drops pooled buffers at random, so the absolute
	// ceiling is read on a plain build only; the ratio holds under both.
	if !raceEnabled && mappedPerDoc > maxMappedPerDoc {
		t.Errorf("mapped open grows %.0f B/doc, ceiling %d", mappedPerDoc, maxMappedPerDoc)
	}
}
