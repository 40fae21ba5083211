package shard

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/semindex"
	"repro/internal/soccer"
	"repro/internal/wal"
)

// crashCorpus is a deliberately small corpus so one ingest page is a
// small WAL record and the every-byte truncation sweep stays fast.
// PaperCoverage keeps the paper's entities present so the paper query
// mix still ranks real hits. The pages ingested through the WAL are
// trimmed further (trimPage) — the sweep's iteration count is the
// record's byte length.
func crashCorpus(t *testing.T) []*crawler.MatchPage {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: 4, Seed: 7, NarrationsPerMatch: 5, PaperCoverage: true})
	pages := crawler.PagesFromCorpus(c)
	if len(pages) < 4 {
		t.Fatalf("crash corpus has %d pages, need 4", len(pages))
	}
	out := append([]*crawler.MatchPage(nil), pages[:4]...)
	out[2] = trimPage(pages[2])
	out[3] = trimPage(pages[3])
	return out
}

// trimPage shrinks a page to a handful of lineup rows and narrations so
// its JSON WAL record is ~1KB instead of ~11KB. The reference engines
// ingest the same trimmed page, so ranking identity is unaffected.
func trimPage(p *crawler.MatchPage) *crawler.MatchPage {
	q := *p
	q.Lineups = make(map[string][]crawler.PlayerLine, len(p.Lineups))
	for team, players := range p.Lineups {
		if len(players) > 3 {
			players = players[:3]
		}
		q.Lineups[team] = players
	}
	if len(q.Goals) > 1 {
		q.Goals = q.Goals[:1]
	}
	q.Subs = nil
	if len(q.Narrations) > 2 {
		q.Narrations = q.Narrations[:2]
	}
	return &q
}

// copySnapshot clones every file of a snapshot base (manifest, shard
// files, WAL) into dstDir under the same basenames, returning the new
// base path. Each truncation experiment recovers from its own clone so
// recovery's own truncation cannot leak between experiments.
func copySnapshot(t *testing.T, base, dstDir string) string {
	t.Helper()
	srcDir := filepath.Dir(base)
	prefix := filepath.Base(base)
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), prefix) {
			continue
		}
		src, err := os.Open(filepath.Join(srcDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(dstDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dstDir, prefix)
}

// TestCrashRecoveryEveryTruncationOffset is the kill-at-any-point
// harness: snapshot two pages, WAL-append two more, then simulate a
// crash at every byte offset of the log — inside the header, inside
// each record, and at every boundary — and require recovery to land on
// exactly the acknowledged prefix, with rankings over the paper query
// mix identical to an engine built from those pages directly.
func TestCrashRecoveryEveryTruncationOffset(t *testing.T) {
	pages := crashCorpus(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "idx.bin")

	e := Build(nil, semindex.FullInf, pages[:2], Options{Shards: 3})
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	walPath := WALPath(base)
	size := func() int64 {
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	// boundaries[k] is the log size once k records are fully on disk.
	boundaries := []int64{size()}
	for _, p := range pages[2:4] {
		if err := ingestPage(e, p); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, size())
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Reference engines: what recovery must be byte-identical to when
	// 0, 1 or 2 of the WAL records survive. Their rankings are computed
	// once; the sweep compares every recovery against them.
	queries := eval.PaperQueries()
	wantDocs := make([]int, 3)
	wantHits := make([][][]semindex.Hit, 3)
	for k := 0; k <= 2; k++ {
		ref := Build(nil, semindex.FullInf, pages[:2+k], Options{Shards: 3})
		wantDocs[k] = ref.NumDocs()
		wantHits[k] = make([][]semindex.Hit, len(queries))
		for qi, q := range queries {
			wantHits[k][qi] = searchN(ref, q.Keywords, 10)
		}
	}

	recovered := func(cut int64) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}
	atBoundary := func(cut int64) bool {
		if cut == 0 {
			return true // no file bytes at all: clean empty log
		}
		for _, b := range boundaries {
			if cut == b {
				return true
			}
		}
		return false
	}

	total := boundaries[len(boundaries)-1]
	t.Logf("sweeping %d truncation offsets (%d-record log)", total+1, len(boundaries)-1)
	for cut := int64(0); cut <= total; cut++ {
		scratch := t.TempDir()
		cutBase := copySnapshot(t, base, scratch)
		if err := os.Truncate(WALPath(cutBase), cut); err != nil {
			t.Fatal(err)
		}
		got, err := Load(cutBase, nil)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := recovered(cut)
		rep := got.LoadReport()
		if rep.WALReplayed != k {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, rep.WALReplayed, k)
		}
		if wantTorn := !atBoundary(cut); rep.WALTorn != wantTorn {
			t.Fatalf("cut %d: WALTorn = %v, want %v", cut, rep.WALTorn, wantTorn)
		}
		if got.NumDocs() != wantDocs[k] {
			t.Fatalf("cut %d: %d docs, want %d", cut, got.NumDocs(), wantDocs[k])
		}
		for qi, q := range queries {
			assertSameHits(t, q.ID, searchN(got, q.Keywords, 10), wantHits[k][qi])
			if t.Failed() {
				t.Fatalf("cut %d: recovered ranking diverged on %s", cut, q.ID)
			}
		}
		// Recovery must leave the log appendable: the next ingest and
		// checkpoint have to succeed on the truncated lineage.
		if err := got.AttachWAL(cutBase, wal.Options{Policy: wal.SyncNever}); err != nil {
			t.Fatalf("cut %d: reattach: %v", cut, err)
		}
		if err := got.CloseWAL(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestWALSingleObjectRecordIsCorrupt: the log has one record shape, a
// JSON array of pages. An intact record holding a bare page object (what
// builds before batched ingest logged) does not replay, so Load fails
// with ErrWALCorrupt and leaves the log exactly as it found it, torn
// tail included.
func TestWALSingleObjectRecordIsCorrupt(t *testing.T) {
	pages := crashCorpus(t)
	base := filepath.Join(t.TempDir(), "idx.bin")
	e := Build(nil, semindex.FullInf, pages[:2], Options{Shards: 2})
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(pages[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.wal.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(WALPath(base))
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, 1, 2, 3) // a torn record header after it
	if err := os.WriteFile(WALPath(base), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Load(base, nil); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Load returned %v, want ErrWALCorrupt", err)
	}
	after, err := os.ReadFile(WALPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(data) {
		t.Fatalf("Load rewrote the log it refused: %d bytes, had %d", len(after), len(data))
	}
}

// TestCrashMidMergeReopensMapped simulates a kill while a mapped
// engine's background merge was in flight: the directory holds the
// committed snapshot plus merger scratch segments — some complete, some
// torn mid-write. Scratch files are never named by the manifest, so a
// mapped reopen must serve the committed generation exactly (no
// quarantine, no fallback, rankings unchanged) and the next checkpoint
// must sweep the orphans away.
func TestCrashMidMergeReopensMapped(t *testing.T) {
	pages := crashCorpus(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "idx.bin")

	ref := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	if err := ref.Save(base); err != nil {
		t.Fatal(err)
	}

	// First life: a mapped engine merges, leaving real scratch segments,
	// and is then abandoned without Close — the crash.
	victim, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	victim.mergeShard(0)
	orphans, err := filepath.Glob(base + ".mapseg*")
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) == 0 {
		t.Fatal("merge on a mapped engine produced no scratch segment")
	}
	// Torn artifacts a kill mid-writeShardFile would leave: a half
	// snapshot under the scratch name and an un-renamed tmp.
	for _, junk := range []string{base + ".mapseg999998.shard001", base + ".mapseg999999.shard000.tmp"} {
		if err := os.WriteFile(junk, []byte("torn scratch write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: reopen mapped over the same directory.
	got, err := LoadWith(base, nil, LoadOptions{Mapped: true})
	if err != nil {
		t.Fatalf("mapped reopen amid scratch orphans failed: %v", err)
	}
	defer got.Close()
	rep := got.LoadReport()
	if len(rep.Quarantined) != 0 {
		t.Fatalf("scratch orphans disturbed the reopen: %+v", rep)
	}
	if got.NumDocs() != ref.NumDocs() {
		t.Fatalf("reopened with %d docs, want %d", got.NumDocs(), ref.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(got, q.Keywords, 10), searchN(ref, q.Keywords, 10))
	}

	// The next checkpoint retires every orphan, torn or complete.
	if err := got.Save(base); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(base + ".mapseg*"); len(left) != 0 {
		t.Fatalf("checkpoint left scratch orphans behind: %v", left)
	}
	if rep := Fsck(base); !rep.OK() {
		t.Fatalf("fsck after orphan sweep:\n%s", rep)
	}
}

// TestCrashBeforeManifestKeepsOldSnapshot simulates a crash between the
// shard-file renames and the manifest commit: the next generation's
// shard files sit fully written in the directory, but the manifest
// still names the previous generation. Load must serve the old snapshot
// untouched — the manifest is the commit point, and generation-stamped
// filenames guarantee the half-finished save never overwrote its files.
func TestCrashBeforeManifestKeepsOldSnapshot(t *testing.T) {
	pages := crashCorpus(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "idx.bin")

	e := Build(nil, semindex.FullInf, pages[:3], Options{Shards: 3})
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}

	// Run the next checkpoint to completion in a scratch clone, then
	// copy only its new shard files back — exactly the bytes a crash
	// right before the manifest rename would have left behind.
	scratch := t.TempDir()
	scratchBase := copySnapshot(t, base, scratch)
	e2, err := Load(scratchBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestPage(e2, pages[3]); err != nil {
		t.Fatal(err)
	}
	if err := e2.Save(scratchBase); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(scratchBase + ".g*.shard*")
	if err != nil {
		t.Fatal(err)
	}
	copied := 0
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(dir, filepath.Base(name))); err == nil {
			continue // generation 1 file, already present
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		copied++
	}
	if copied == 0 {
		t.Fatal("second save produced no new generation files")
	}

	got, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.LoadReport().Generation != 1 || got.NumDocs() != e.NumDocs() {
		t.Fatalf("recovered generation %d with %d docs, want generation 1 with %d",
			got.LoadReport().Generation, got.NumDocs(), e.NumDocs())
	}
	if len(got.Quarantined()) != 0 {
		t.Fatalf("old snapshot quarantined %v after unmanifested new files appeared", got.Quarantined())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(got, q.Keywords, 10), searchN(e, q.Keywords, 10))
	}
}
