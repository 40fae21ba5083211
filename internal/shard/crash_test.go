package shard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/wal"
)

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
// files, WAL) into dstDir under the same basenames, returning the new base
// path, so that recovery, which may write, runs on its own copy.
func copySnapshot(t *testing.T, base, dstDir string) string {
	t.Helper()
	names, _ := filepath.Glob(base + "*") // the pattern is well formed
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err == nil {
			err = os.WriteFile(filepath.Join(dstDir, filepath.Base(name)), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dstDir, filepath.Base(base))
}

// patchFile rewrites the file at path after edit has changed its bytes.
func patchFile(t *testing.T, path string, edit func(data []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err == nil {
		edit(data)
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALSingleObjectRecordIsCorrupt: the log has one record shape, a
// JSON array of pages. An intact record holding a bare page object (what
// builds before batched ingest logged) does not replay, so Load fails
// with ErrWALCorrupt and leaves the log exactly as it found it, torn
// tail included.
func TestWALSingleObjectRecordIsCorrupt(t *testing.T) {
	c := oracleCorpus()
	pages := []*crawler.MatchPage{c[0][0], c[1][0], c[2][1]}
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
