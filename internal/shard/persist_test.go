package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/semindex"
)

// TestShrinkThenReload is the stale-shard-file regression: saving a
// narrower engine over a base that previously held a wider one must not
// resurrect the orphaned shard files on reload. The manifest names
// exactly the live files.
func TestShrinkThenReload(t *testing.T) {
	pages, _ := fixture(t)
	base := filepath.Join(t.TempDir(), "idx.bin")
	wide := Build(nil, semindex.FullInf, pages, Options{Shards: 3})
	if err := wide.Save(base); err != nil {
		t.Fatal(err)
	}
	narrow := Build(nil, semindex.FullInf, pages, Options{Shards: 2})
	if err := narrow.Save(base); err != nil {
		t.Fatal(err)
	}
	back, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumShards() != 2 {
		t.Fatalf("reloaded %d shards, want the narrower save's 2", back.NumShards())
	}
	if back.NumDocs() != narrow.NumDocs() {
		t.Fatalf("reloaded %d docs, want %d", back.NumDocs(), narrow.NumDocs())
	}
	for _, q := range eval.PaperQueries() {
		assertSameHits(t, q.ID, searchN(back, q.Keywords, 10), searchN(narrow, q.Keywords, 10))
	}
}

// TestLoadQuarantinesCorruptShard flips one payload byte in one shard
// file and requires Load to keep serving: the corrupt shard is
// quarantined (renamed *.corrupt), the engine starts degraded, every
// search names the missing shard, lost documents read as nil, and a
// checkpoint of the degraded engine is refused.
func TestLoadQuarantinesCorruptShard(t *testing.T) {
	e, base := saveFixture(t, 3)
	victim := shardGenPath(base, 1, 1)
	patchFile(t, victim, func(data []byte) { data[len(data)/2] ^= 0x40 })

	back, err := Load(base, nil)
	if err != nil {
		t.Fatalf("Load failed outright on one corrupt shard: %v", err)
	}
	rep := back.LoadReport()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Shard != 1 {
		t.Fatalf("quarantined %+v, want exactly shard 1", rep.Quarantined)
	}
	if !errors.Is(rep.Quarantined[0].Err, ErrSnapshotCorrupt) {
		t.Errorf("quarantine error %v does not wrap ErrSnapshotCorrupt", rep.Quarantined[0].Err)
	}
	if got := back.Quarantined(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", got)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Errorf("corrupt file was not renamed aside: %v", err)
	}

	res, err := back.Search(context.Background(), "goal", SearchOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Degraded {
		t.Error("degraded engine answered without Degraded set")
	}
	if len(res.Report.Missing) != 1 || res.Report.Missing[0] != 1 {
		t.Errorf("Report.Missing = %v, want [1]", res.Report.Missing)
	}

	// The gid space keeps the holes: surviving documents stay at their
	// monolith-equal ids, lost ones read as nil.
	lost, survived := 0, 0
	for gid := 0; gid < e.NumDocs(); gid++ {
		if back.Doc(gid) == nil {
			lost++
		} else {
			survived++
		}
	}
	if lost == 0 || survived == 0 {
		t.Fatalf("lost %d / survived %d docs, want both nonzero", lost, survived)
	}
	// Survivors keep their monolith-equal ids instead of being
	// renumbered into the holes: the stored document at each surviving
	// gid is the one the intact engine stored there.
	for gid := 0; gid < e.NumDocs(); gid++ {
		d := back.Doc(gid)
		if d == nil {
			continue
		}
		if want := e.Doc(gid); !reflect.DeepEqual(d.Fields, want.Fields) {
			t.Fatalf("gid %d: surviving document was renumbered", gid)
		}
	}

	if err := back.Save(base); !errors.Is(err, ErrDegraded) {
		t.Errorf("degraded Save returned %v, want ErrDegraded", err)
	}
}

// patchMeta lets edit rewrite a shard file's metadata region in place and
// then seals the region's CRC again, so the file is damaged only where
// edit damaged it. list is the offset of the global-ID list in meta.
func patchMeta(t *testing.T, path string, edit func(meta []byte, list int)) {
	t.Helper()
	patchFile(t, path, func(data []byte) {
		tr := data[len(data)-snapTrailerLen:]
		end := len(data) - snapTrailerLen
		meta := data[end-int(binary.LittleEndian.Uint64(tr[0:8])) : end]
		_, list := binary.Uvarint(meta)
		edit(meta, list)
		binary.LittleEndian.PutUint32(tr[8:12], crc32.ChecksumIEEE(meta))
	})
}

// putUvarint overwrites the uvarint at b with v, coded in the same number
// of bytes (padded with continuation bytes where v is shorter).
func putUvarint(b []byte, v uint64) {
	_, n := binary.Uvarint(b)
	for i := 0; i < n-1; i++ {
		b[i] = byte(v) | 0x80
		v >>= 7
	}
	b[n-1] = byte(v)
}

// TestGlobalIDListChecks: a shard file whose global-ID list is not
// strictly ascending, is truncated, or counts other than the payload's
// documents is damaged even under a valid metadata CRC: heap and mapped
// loads quarantine it and Fsck calls it BAD. Two intact files that both
// claim one global ID fail the load.
func TestGlobalIDListChecks(t *testing.T) {
	_, saved := saveFixture(t, 2)
	victim := filepath.Base(shardGenPath(saved, 1, 1))
	for name, edit := range map[string]func(meta []byte, list int){
		"not ascending": func(meta []byte, list int) {
			_, first := binary.Uvarint(meta[list:])
			meta[list+first] = 0 // the second ID equals the first
		},
		"truncated": func(meta []byte, list int) {
			n, _ := binary.Uvarint(meta)
			meta[list+int(n)-1] |= 0x80 // the last ID's uvarint runs on
		},
		"count differs": func(meta []byte, _ int) {
			n, _ := binary.Uvarint(meta)
			putUvarint(meta, n-1) // the last ID's byte joins the TOC
		},
	} {
		t.Run(name, func(t *testing.T) {
			base := copySnapshot(t, saved, t.TempDir())
			patchMeta(t, filepath.Join(filepath.Dir(base), victim), edit)
			rep := Fsck(base)
			if f := rep.Files[1]; f.OK || f.Unverifiable || !strings.Contains(rep.String(), "DAMAGED") {
				t.Fatalf("fsck verdict:\n%s", rep)
			}
			for _, mapped := range []bool{false, true} {
				base := copySnapshot(t, base, t.TempDir())
				e, err := LoadWith(base, nil, LoadOptions{Mapped: mapped})
				if err != nil {
					t.Fatalf("mapped %v: %v", mapped, err)
				}
				q := e.LoadReport().Quarantined
				if len(q) != 1 || q[0].Shard != 1 || !errors.Is(q[0].Err, ErrSnapshotCorrupt) {
					t.Errorf("mapped %v: quarantined %+v, want shard 1", mapped, q)
				}
				e.Close()
			}
		})
	}

	t.Run("duplicate across shards", func(t *testing.T) {
		base := copySnapshot(t, saved, t.TempDir())
		// Shift the shard without global ID 0 down onto it: each list stays
		// ascending, and both files claim ID 0.
		zero := 0
		patchMeta(t, shardGenPath(base, 1, 1), func(meta []byte, list int) {
			if first, _ := binary.Uvarint(meta[list:]); first == 1 {
				zero = 1
			}
		})
		patchMeta(t, shardGenPath(base, 1, 1-zero), func(meta []byte, list int) {
			putUvarint(meta[list:], 1)
		})
		if rep := Fsck(base); !rep.OK() {
			t.Fatalf("each file is intact, fsck says:\n%s", rep)
		}
		for _, mapped := range []bool{false, true} {
			if _, err := LoadWith(base, nil, LoadOptions{Mapped: mapped}); err == nil || !strings.Contains(err.Error(), "duplicate global id") {
				t.Errorf("mapped %v: load returned %v, want a duplicate global id", mapped, err)
			}
		}
	})
}

// TestLoadManifestCorrupt covers the unrecoverable commit-point cases:
// a flipped manifest byte and a truncated manifest both fail with
// ErrManifestCorrupt rather than loading something wrong.
func TestLoadManifestCorrupt(t *testing.T) {
	_, base := saveFixture(t, 2)
	data, err := os.ReadFile(ManifestPath(base))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutated := range map[string][]byte{
		"bit flip":  append(append([]byte{}, data[:8]...), append([]byte{data[8] ^ 0x01}, data[9:]...)...),
		"truncated": data[:len(data)/2],
	} {
		if err := os.WriteFile(ManifestPath(base), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(base, nil); !errors.Is(err, ErrManifestCorrupt) {
			t.Errorf("%s manifest: Load returned %v, want ErrManifestCorrupt", name, err)
		}
	}
}

// TestFsckVerdicts drives the offline audit across the intact and
// damaged states of one base.
func TestFsckVerdicts(t *testing.T) {
	_, base := saveFixture(t, 2)
	rep := Fsck(base)
	if !rep.OK() || !strings.Contains(rep.String(), "verdict: OK") {
		t.Fatalf("clean snapshot fsck:\n%s", rep)
	}

	victim := shardGenPath(base, 1, 0)
	patchFile(t, victim, func(data []byte) { data[len(data)-20] ^= 0x80 })
	rep = Fsck(base)
	if rep.OK() || !strings.Contains(rep.String(), "DAMAGED") {
		t.Fatalf("fsck missed the flipped byte:\n%s", rep)
	}
	bad := 0
	for _, f := range rep.Files {
		if !f.OK {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("fsck marked %d files bad, want 1:\n%s", bad, rep)
	}
	// Fsck is read-only: the damaged base must still load (degraded).
	back, err := Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Quarantined()) != 1 {
		t.Fatalf("after fsck, Load quarantined %v", back.Quarantined())
	}
}

// TestLoadErrors covers the failure modes: nothing at the path, and a
// manifest whose only shard file is garbage.
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "nope"), nil); err == nil {
		t.Error("Load on missing files succeeded")
	}
	base := filepath.Join(dir, "trunc")
	garbage := []byte("GARB")
	if err := os.WriteFile(shardGenPath(base, 1, 0), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	m := &manifest{Generation: 1, Level: semindex.FullInf, Files: []manifestEntry{
		{Name: filepath.Base(shardGenPath(base, 1, 0)), Size: int64(len(garbage))},
	}}
	if err := writeManifest(base, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(base, nil); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Load on a corrupt shard returned %v, want ErrSnapshotCorrupt", err)
	}
}

// rewriteManifest replaces the manifest at base with edit applied to its
// body — every line but the checksum — under a freshly computed checksum,
// so the result passes the manifest CRC and only its content is wrong.
func rewriteManifest(t *testing.T, base string, edit func(body string) string) {
	t.Helper()
	raw, err := os.ReadFile(ManifestPath(base))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	body := edit(text[:strings.LastIndex(text, "checksum ")])
	out := fmt.Sprintf("%schecksum %08x\n", body, crc32.ChecksumIEEE([]byte(body)))
	if err := os.WriteFile(ManifestPath(base), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	return names
}

// TestManifestLevelChecked: the manifest is the one record of a
// snapshot's level, so a checksum-valid manifest naming no level, or one
// that is not a semantic index level, is a corrupt commit point. Load
// fails with ErrManifestCorrupt before it opens a shard file — nothing is
// quarantined — and Fsck reports the manifest error.
func TestManifestLevelChecked(t *testing.T) {
	for name, edit := range map[string]func(string) string{
		"bogus":   func(body string) string { return strings.Replace(body, "level FULL_INF\n", "level BOGUS\n", 1) },
		"missing": func(body string) string { return strings.Replace(body, "level FULL_INF\n", "", 1) },
	} {
		t.Run(name, func(t *testing.T) {
			_, base := saveFixture(t, 2)
			rewriteManifest(t, base, edit)
			before := dirNames(t, filepath.Dir(base))

			for _, mapped := range []bool{false, true} {
				if _, err := LoadWith(base, nil, LoadOptions{Mapped: mapped}); !errors.Is(err, ErrManifestCorrupt) {
					t.Fatalf("mapped=%v: Load returned %v, want ErrManifestCorrupt", mapped, err)
				}
			}
			if after := dirNames(t, filepath.Dir(base)); !slices.Equal(before, after) {
				t.Errorf("Load of a bad-level manifest renamed files: %v, then %v", before, after)
			}
			rep := Fsck(base)
			if rep.OK() || len(rep.Errs) != 1 || !strings.Contains(rep.Errs[0], "level") {
				t.Errorf("fsck of a bad-level manifest:\n%s", rep)
			}
		})
	}
}

// TestSwappedLevelFileIsCorrupt: a shard file carries no level of its own,
// so a file of another level's snapshot copied over one of this snapshot's
// is caught by the manifest's size and CRC for that file, as any other
// foreign bytes are. Heap and mapped loads both quarantine it and serve
// the other shard; Fsck calls it BAD, not UNVERIFIABLE.
func TestSwappedLevelFileIsCorrupt(t *testing.T) {
	pages, _ := fixture(t)
	dir := t.TempDir()
	full, trad := filepath.Join(dir, "full"), filepath.Join(dir, "trad")
	if err := Build(nil, semindex.FullInf, pages, Options{Shards: 2}).Save(full); err != nil {
		t.Fatal(err)
	}
	if err := Build(nil, semindex.Trad, pages, Options{Shards: 2}).Save(trad); err != nil {
		t.Fatal(err)
	}
	foreign, err := os.ReadFile(shardGenPath(trad, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardGenPath(full, 1, 0), foreign, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := Fsck(full)
	if rep.OK() || !strings.Contains(rep.String(), "DAMAGED") {
		t.Fatalf("fsck missed the swapped file:\n%s", rep)
	}
	if f := rep.Files[0]; f.OK || f.Unverifiable || !rep.Files[1].OK {
		t.Fatalf("fsck verdicts %+v, want shard 0 BAD and shard 1 OK", rep.Files)
	}
	for _, mapped := range []bool{false, true} {
		base := copySnapshot(t, full, t.TempDir())
		e, err := LoadWith(base, nil, LoadOptions{Mapped: mapped})
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		q := e.LoadReport().Quarantined
		if len(q) != 1 || q[0].Shard != 0 || !errors.Is(q[0].Err, ErrSnapshotCorrupt) ||
			!strings.Contains(q[0].Err.Error(), "manifest says") {
			t.Fatalf("mapped=%v: quarantined %+v, want shard 0 failing its manifest entry", mapped, q)
		}
		if e.Level() != semindex.FullInf {
			t.Errorf("mapped=%v: level %s, want the manifest's FULL_INF", mapped, e.Level())
		}
		e.Close()
	}
}
