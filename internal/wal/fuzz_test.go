package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// record renders one valid WAL record for seeding.
func record(payload []byte) []byte {
	var hdr [recHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// FuzzReadRecords hardens the recovery scanner against arbitrary bytes:
// whatever a crash, a bit flip, or an adversarial file leaves behind the
// header, the scanner must terminate without panicking, never claim more
// valid bytes than exist, and never allocate past the input size (the
// length-prefix defense). Replay and Open both ride this function, so a
// panic here is a crashed recovery.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(record([]byte("one")))
	f.Add(append(record([]byte("one")), record([]byte("two"))...))
	f.Add(append(record([]byte("one")), 0x03, 0x00))
	f.Add(make([]byte, 64)) // zero-filled tail
	// Length prefix claiming 4 GiB with no bytes behind it.
	huge := make([]byte, recHdrLen)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []int // each record's payload length
		n, valid, torn, err := readRecords(bytes.NewReader(data), int64(len(data)), func(rec []byte) error {
			recs = append(recs, len(rec))
			return nil
		})
		if err != nil {
			t.Fatalf("scan with a nil-returning fn failed: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		if !torn && valid != int64(len(data)) {
			t.Fatalf("clean scan but %d of %d bytes consumed", valid, len(data))
		}
		total := int64(0)
		for _, l := range recs {
			total += recHdrLen + int64(l)
		}
		if total != valid || n != len(recs) {
			t.Fatalf("%d records cover %d bytes, valid prefix is %d in %d records", len(recs), total, valid, n)
		}
		// A nil fn (Open, Scan) must scan exactly like a collecting one.
		nOnly, validOnly, tornOnly, _ := readRecords(bytes.NewReader(data), int64(len(data)), nil)
		if nOnly != n || validOnly != valid || tornOnly != torn {
			t.Fatalf("scan without fn diverged: (%d,%d,%v) vs (%d,%d,%v)",
				nOnly, validOnly, tornOnly, n, valid, torn)
		}
	})
}
