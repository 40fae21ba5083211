package shard

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crawler"
	"repro/internal/eval"
	"repro/internal/semindex"
	"repro/internal/soccer"
	"repro/internal/wal"
)

// floorDir holds a snapshot and WAL written by the build that set the
// on-disk compatibility floor: the oldest bytes this build must read.
// Moving the floor is a fixture regeneration, not a second decoder:
//
//	go test ./internal/shard -run TestFloorFixture -update
const floorDir = "testdata/floor"

// floorMaxBytes caps the committed fixture.
const floorMaxBytes = 64 << 10

var updateFloor = flag.Bool("update", false, "rewrite testdata/floor with the snapshot and WAL this build writes")

// floorPages is the fixture corpus: snap is checkpointed into a 2-shard
// snapshot, batch rides in the WAL as one AtomicBatch record. Pages keep
// twenty narrations but trimPage's lineups, enough for eight of the ten
// paper queries to rank hits inside floorMaxBytes.
func floorPages(t *testing.T) (snap, batch []*crawler.MatchPage) {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: 4, Seed: 7, NarrationsPerMatch: 5, PaperCoverage: true})
	pages := crawler.PagesFromCorpus(c)
	if len(pages) < 4 {
		t.Fatalf("floor corpus has %d pages, need 4", len(pages))
	}
	for i, p := range pages[:4] {
		pages[i] = trimPage(p)
		pages[i].Narrations = p.Narrations[:min(20, len(p.Narrations))]
	}
	return pages[:2], pages[2:4]
}

// writeFloorFixture writes the fixture at base with this build.
func writeFloorFixture(t *testing.T, base string) {
	snap, batch := floorPages(t)
	e := Build(nil, semindex.FullInf, snap, Options{Shards: 2})
	for i := 0; i < e.NumShards(); i++ {
		if e.Shard(i).Index.NumDocs() == 0 {
			t.Fatalf("floor snapshot shard %d is empty", i)
		}
	}
	if err := e.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), batch, IngestOptions{Atomicity: AtomicBatch}); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestFloorFixture proves from committed bytes that snapshots at the
// floor still load: the fixture fscks clean, heap and mapped loads both
// replay its WAL record, and both rank every paper query — every match,
// scores and tie order — exactly like Build followed by Ingest over the
// same pages.
func TestFloorFixture(t *testing.T) {
	if *updateFloor {
		if err := os.RemoveAll(floorDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(floorDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFloorFixture(t, filepath.Join(floorDir, "idx"))
	}
	entries, err := os.ReadDir(floorDir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > floorMaxBytes {
		t.Fatalf("floor fixture is %d bytes, cap %d", total, floorMaxBytes)
	}

	snap, batch := floorPages(t)
	ref := Build(nil, semindex.FullInf, snap, Options{Shards: 2})
	if _, err := ref.Ingest(context.Background(), batch, IngestOptions{}); err != nil {
		t.Fatal(err)
	}

	if rep := Fsck(filepath.Join(floorDir, "idx")); !rep.OK() {
		t.Fatalf("floor fixture fsck:\n%s", rep)
	}
	for _, mapped := range []bool{false, true} {
		// Each load gets its own copy: recovery may write (a mapped
		// engine's compaction, a WAL tear), the committed fixture must not.
		base := copySnapshot(t, filepath.Join(floorDir, "idx"), t.TempDir())
		got, err := LoadWith(base, nil, LoadOptions{Mapped: mapped})
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if rep := got.LoadReport(); rep.WALReplayed != 1 || rep.WALTorn || len(rep.Quarantined) != 0 {
			t.Fatalf("mapped=%v: load report %+v, want one replayed record", mapped, rep)
		}
		if got.NumDocs() != ref.NumDocs() {
			t.Fatalf("mapped=%v: %d docs, want %d", mapped, got.NumDocs(), ref.NumDocs())
		}
		for _, q := range eval.PaperQueries() {
			assertSameHits(t, q.ID, searchN(got, q.Keywords, 0), searchN(ref, q.Keywords, 0))
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
