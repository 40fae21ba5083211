package index

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the snapshot codec. Decode reads
// snapshot files whose durability we cannot guarantee (torn writes, bit
// rot), so the property under test is purely defensive: it must never
// panic and never allocate past what the input can back, and any input
// it accepts must round-trip through EncodeWithTOC without blowing up.
func FuzzDecode(f *testing.F) {
	// Seed 1: a small valid index so the fuzzer starts with the real
	// grammar rather than rediscovering the magic number.
	ix := New(StandardAnalyzer{})
	for _, text := range []string{
		"semantic indexing of soccer ontologies",
		"fuzzy inference over crisp instances",
	} {
		d := &Document{}
		d.Add("text", text)
		d.AddBoosted("title", "seed doc", 2)
		ix.Add(d)
	}
	valid, _, err := encode(ix)
	if err != nil {
		f.Fatalf("encoding seed: %v", err)
	}
	f.Add(valid)

	// Seed 2: truncated valid prefix — the torn-write shape.
	f.Add(valid[:len(valid)/2])

	// Seed 3: valid header claiming 2^32-1 docs with no bytes behind
	// the claim — the allocation-bomb shape.
	bomb := []byte(codecMagic)
	bomb = binary.LittleEndian.AppendUint32(bomb, CodecVersionCurrent)
	bomb = binary.LittleEndian.AppendUint32(bomb, 0xFFFFFFFF)
	f.Add(bomb)

	// Seed 4: zero-filled tail after the header.
	zeros := append([]byte(codecMagic), make([]byte, 64)...)
	f.Add(zeros)

	// Seed 5: a string length prefix claiming 64 MiB with four bytes
	// behind it — the one-shot-allocation shape.
	lying := []byte(codecMagic)
	lying = binary.LittleEndian.AppendUint32(lying, CodecVersionCurrent)
	lying = binary.LittleEndian.AppendUint32(lying, 1) // one doc
	lying = binary.LittleEndian.AppendUint32(lying, 1) // one field
	lying = binary.LittleEndian.AppendUint32(lying, 1<<26)
	lying = append(lying, "name"...)
	f.Add(lying)

	// Seeds 6 and 7: a document count that passes the plausibility cap with
	// nothing behind it, bare and with one field whose only length entry
	// names the last document — the shapes that would size a dense
	// per-document table from a claim.
	f.Add(hostileDocCount(false))
	f.Add(hostileDocCount(true))

	// Seed 8: a stored chunk whose length prefix claims 4 GiB.
	f.Add(hostileChunk())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data), StandardAnalyzer{})
		if err != nil {
			return
		}
		// Accepted input must be structurally sound enough to encode.
		var buf bytes.Buffer
		if _, err := got.EncodeWithTOC(&buf); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		// Postings may only reference stored documents.
		for _, field := range got.FieldNames() {
			for _, term := range got.Terms(field) {
				for _, p := range got.Postings(field, term) {
					if p.DocID < 0 || p.DocID >= got.NumDocs() {
						t.Fatalf("field %q term %q: posting doc %d outside [0,%d)",
							field, term, p.DocID, got.NumDocs())
					}
				}
			}
		}
	})
}

// FuzzStoredChunk feeds the stored chunk parser directly, which FuzzDecode's
// bytes seldom reach through flate. The input is a document count, 1 to
// storedChunkDocs, and chunk contents. parse must never panic or allocate
// past what the contents back, and a chunk it accepts must decode every
// document and write back to the same bytes.
func FuzzStoredChunk(f *testing.F) {
	var s storedRegion
	for _, d := range storedTestDocs(0, 300) {
		s.add(d)
	}
	for _, span := range [][2]int{{0, 128}, {126, 131}, {299, 300}} {
		f.Add(uint8(span[1]-span[0]-1), writeChunk(nil, &s, span[0], span[1]))
	}
	// Two documents whose lengths, 5 and 2^64-3, sum to the 2 bytes left.
	f.Add(uint8(1), []byte{1, 0, 5, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 0})
	f.Fuzz(func(t *testing.T, n uint8, b []byte) {
		docs := 1 + int(n)%storedChunkDocs
		c := new(storedChunk)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok := c.parse(b, docs)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+40*uint64(len(b)) {
			t.Fatalf("parsing %d bytes allocated %d", len(b), grew)
		}
		if !ok {
			return
		}
		for k := range docs {
			c.decode(k)
		}
		var s storedRegion
		s.appendSurvivors(c, nil)
		if got := writeChunk(nil, &s, 0, docs); !bytes.Equal(got, b) {
			t.Fatalf("accepted %x, which writes back as %x", b, got)
		}
	})
}
