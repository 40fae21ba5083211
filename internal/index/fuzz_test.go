package index

import (
	"bytes"
	"encoding/binary"
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
