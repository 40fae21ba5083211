package shard

// Version-skew coverage for the snapshot envelope: a file of any
// envelope version or payload codec other than the one this build reads
// — older, below the compatibility floor, or newer — must be refused
// without being mistaken for damage: no quarantine rename, an
// UNVERIFIABLE fsck verdict rather than DAMAGED.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/index"
)

// TestSnapshotVersionSkewUnverifiableNotDamaged is the compatibility
// contract in both directions: a shard file claiming an envelope version
// or payload codec other than the one this build reads is a version
// skew, not corruption. Load must refuse with ErrSnapshotUnknownVersion
// and leave the file exactly where it is (no *.corrupt rename —
// quarantining would destroy data the matching binary reads fine), and
// fsck must say UNVERIFIABLE, not DAMAGED.
func TestSnapshotVersionSkewUnverifiableNotDamaged(t *testing.T) {
	for name, patch := range map[string]func(hdr []byte){
		"newer codec":            func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[8:12], index.CodecVersionCurrent+7) },
		"newer envelope version": func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[4:8], snapVersion+1) },
		"older codec":            func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[8:12], index.CodecVersionCurrent-1) },
		"older envelope version": func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[4:8], snapVersion-1) },
	} {
		t.Run(name, func(t *testing.T) {
			_, base := saveFixture(t, 2)
			victim := shardGenPath(base, 1, 1)
			// The header sits outside the payload CRC, so the patched file
			// has the header another build's file would carry.
			patchFile(t, victim, func(data []byte) { patch(data[:snapHeaderLen]) })

			rep := Fsck(base)
			if rep.OK() {
				t.Fatalf("fsck called an other-version snapshot OK:\n%s", rep)
			}
			s := rep.String()
			if !strings.Contains(s, "UNVERIFIABLE") || strings.Contains(s, "DAMAGED") {
				t.Fatalf("fsck verdict for an other-version file:\n%s", s)
			}
			unver := 0
			for _, f := range rep.Files {
				if f.Unverifiable {
					unver++
				}
			}
			if unver != 1 {
				t.Fatalf("fsck flagged %d files unverifiable, want 1:\n%s", unver, s)
			}

			if _, err := Load(base, nil); !errors.Is(err, ErrSnapshotUnknownVersion) {
				t.Fatalf("Load returned %v, want ErrSnapshotUnknownVersion", err)
			}
			if _, err := os.Stat(victim + ".corrupt"); !os.IsNotExist(err) {
				t.Error("Load quarantined an other-version file as corrupt")
			}
			if _, err := os.Stat(victim); err != nil {
				t.Errorf("other-version file no longer in place: %v", err)
			}
		})
	}
}

// TestManifestRecordsCodec checks the commit point names the codec its
// payloads were written with, and fsck surfaces it.
func TestManifestRecordsCodec(t *testing.T) {
	_, base := saveFixture(t, 2)
	m, err := readManifest(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.Codec != index.CodecVersionCurrent {
		t.Fatalf("manifest codec %d, want %d", m.Codec, index.CodecVersionCurrent)
	}
	want := fmt.Sprintf("codec v%d", index.CodecVersionCurrent)
	if rep := Fsck(base); !strings.Contains(rep.String(), want) {
		t.Errorf("fsck report does not surface %q:\n%s", want, rep)
	}
}
