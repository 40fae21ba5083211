package shard

// The manifest is the engine's commit point, in the Lucene segments_N
// lineage: a snapshot "exists" exactly when a manifest names its files,
// and Load reads only what the manifest names. Save writes every shard
// file (tmp + fsync + rename), then commits the manifest last — also
// tmp + fsync + rename — so a crash at any instant leaves either the
// old complete snapshot or the new complete snapshot, never a mix. The
// manifest carries per-file sizes and checksums so Load can reject a
// bit-flipped or truncated shard before trusting a byte of it, and it
// pins the snapshot generation that ties the ingest WAL to this exact
// commit point.

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/semindex"
)

const (
	manifestMagic   = "SOCMANIFEST"
	manifestVersion = 1
)

// ErrManifestCorrupt reports a manifest that exists but cannot be
// trusted: bad magic, unparseable lines, a missing or unknown level, or a
// failed checksum. Nothing behind an untrusted manifest is loaded.
var ErrManifestCorrupt = errors.New("shard: manifest corrupt")

// ErrSnapshotCorrupt reports a shard snapshot file whose envelope,
// size or checksum does not match its manifest entry.
var ErrSnapshotCorrupt = errors.New("shard: snapshot corrupt")

// ErrWALCorrupt reports a WAL record that passed its CRC but does not
// decode as an ingest batch — the log itself is damaged beyond a torn
// tail, so recovery refuses to guess.
var ErrWALCorrupt = errors.New("shard: WAL record corrupt")

// ErrDegraded reports an operation refused because the engine is
// serving degraded (quarantined shards): checkpointing such an engine
// would silently bless the data loss into a clean-looking snapshot.
var ErrDegraded = errors.New("shard: engine degraded by quarantined shards")

// ManifestPath names the commit-point file next to the shard files.
func ManifestPath(base string) string { return base + ".manifest" }

// WALPath names the ingest write-ahead log for a snapshot base.
func WALPath(base string) string { return base + ".wal" }

// manifestEntry describes one committed shard file. Name is a basename:
// a snapshot directory can be copied or moved wholesale.
type manifestEntry struct {
	Name string
	Size int64
	CRC  uint32
}

// manifest is the parsed commit point.
type manifest struct {
	Generation uint64
	Level      semindex.Level
	// Codec is the index codec version of every shard payload in this
	// snapshot (0 when the manifest has no codec line). Informational:
	// each shard file's envelope is what gates the version.
	Codec uint32
	// NextGID is the next unused global docID when the snapshot's ID
	// space has holes (tombstoned documents compacted away before the
	// save). 0 — the common, hole-free case — is omitted from the
	// rendered manifest entirely, so ordinary snapshots stay
	// byte-identical to pre-LSM ones; Load then derives the next ID from
	// the document count as before.
	NextGID uint64
	Files   []manifestEntry
	// WAL is the basename of the ingest log extending this snapshot
	// ("" when the snapshot was committed without one).
	WAL string
}

// render produces the canonical manifest bytes: header lines, one line
// per file, the WAL name, and a trailing checksum line over everything
// before it.
func (m *manifest) render() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", manifestMagic, manifestVersion)
	fmt.Fprintf(&b, "generation %d\n", m.Generation)
	fmt.Fprintf(&b, "level %s\n", m.Level)
	if m.Codec != 0 {
		fmt.Fprintf(&b, "codec %d\n", m.Codec)
	}
	if m.NextGID != 0 {
		fmt.Fprintf(&b, "nextgid %d\n", m.NextGID)
	}
	fmt.Fprintf(&b, "shards %d\n", len(m.Files))
	for _, f := range m.Files {
		fmt.Fprintf(&b, "file %s %d %08x\n", f.Name, f.Size, f.CRC)
	}
	if m.WAL != "" {
		fmt.Fprintf(&b, "wal %s\n", m.WAL)
	}
	body := b.String()
	return []byte(fmt.Sprintf("%schecksum %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// writeManifest commits the manifest atomically: tmp file, fsync,
// rename into place, fsync the directory so the rename itself is
// durable.
func writeManifest(base string, m *manifest) error {
	path := ManifestPath(base)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if _, err := f.Write(m.render()); err != nil {
		f.Close()
		return fmt.Errorf("shard: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shard: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// readManifest parses and verifies the commit point. A missing file
// returns an os.ErrNotExist error — there is no snapshot at base; any
// other failure wraps ErrManifestCorrupt.
func readManifest(base string) (*manifest, error) {
	raw, err := os.ReadFile(ManifestPath(base))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	// Split off and verify the checksum line first: every other parse
	// error below is then a true format error, not a flipped bit.
	idx := strings.LastIndex(strings.TrimSuffix(string(raw), "\n"), "\n")
	if idx < 0 {
		return nil, fmt.Errorf("%w: no checksum line", ErrManifestCorrupt)
	}
	body, last := string(raw[:idx+1]), strings.TrimSpace(string(raw[idx+1:]))
	var sum uint32
	if _, err := fmt.Sscanf(last, "checksum %08x", &sum); err != nil {
		return nil, fmt.Errorf("%w: bad checksum line %q", ErrManifestCorrupt, last)
	}
	if crc32.ChecksumIEEE([]byte(body)) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrManifestCorrupt)
	}

	m := &manifest{}
	sc := bufio.NewScanner(strings.NewReader(body))
	line := 0
	shards := -1
	sawMagic := false
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func() (*manifest, error) {
			return nil, fmt.Errorf("%w: line %d %q", ErrManifestCorrupt, line, sc.Text())
		}
		switch fields[0] {
		case manifestMagic:
			if line != 1 || len(fields) != 2 || fields[1] != strconv.Itoa(manifestVersion) {
				return bad()
			}
			sawMagic = true
		case "generation":
			g, err := strconv.ParseUint(fields[1], 10, 64)
			if len(fields) != 2 || err != nil {
				return bad()
			}
			m.Generation = g
		case "level":
			if len(fields) != 2 {
				return bad()
			}
			m.Level = semindex.Level(fields[1])
		case "codec":
			c, err := strconv.ParseUint(fields[1], 10, 32)
			if len(fields) != 2 || err != nil || c == 0 {
				return bad()
			}
			m.Codec = uint32(c)
		case "nextgid":
			g, err := strconv.ParseUint(fields[1], 10, 64)
			if len(fields) != 2 || err != nil || g == 0 {
				return bad()
			}
			m.NextGID = g
		case "shards":
			n, err := strconv.Atoi(fields[1])
			if len(fields) != 2 || err != nil || n < 0 {
				return bad()
			}
			shards = n
		case "file":
			if len(fields) != 4 {
				return bad()
			}
			size, err1 := strconv.ParseInt(fields[2], 10, 64)
			crc, err2 := strconv.ParseUint(fields[3], 16, 32)
			if err1 != nil || err2 != nil || size < 0 {
				return bad()
			}
			m.Files = append(m.Files, manifestEntry{Name: fields[1], Size: size, CRC: uint32(crc)})
		case "wal":
			if len(fields) != 2 {
				return bad()
			}
			m.WAL = fields[1]
		default:
			return bad()
		}
	}
	if !sawMagic || shards != len(m.Files) {
		return nil, fmt.Errorf("%w: shard count %d does not match %d file lines",
			ErrManifestCorrupt, shards, len(m.Files))
	}
	// The one record of the snapshot's level: shard files carry none.
	if !slices.Contains(semindex.Levels, m.Level) {
		return nil, fmt.Errorf("%w: level %q is not a semantic index level", ErrManifestCorrupt, m.Level)
	}
	return m, nil
}

// syncDir makes a rename in dir durable. Filesystems that do not
// support directory fsync report it as a real error — this layer exists
// for crash safety, so pretending would defeat it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard: syncing %s: %w", dir, err)
	}
	return nil
}
