package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
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
			for _, term := range got.fields[field].termNames() {
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

// FuzzMergeMatchesRebuild draws 1–4 sources, heap or mapped, whose
// documents die by Delete or by a liveness mask (which overrides the
// source's own bits, and keeps alive some a later Delete hit); fields at
// boosts of both signs that change between sources and now and then
// inside one; a multi-valued field; and a field and a term that first
// appear late. The merge must encode byte for byte like a build of the
// survivors and carry the exact caps and blocks (checkMergeMatchesBuild):
// the kernel oracle's merged representation checks rankings only, which a
// cap that is too loose still gets right.
func FuzzMergeMatchesRebuild(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	words := strings.Fields("goal save foul corner the shot keeper header")
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		boostOf := func() float64 { return []float64{0, 1, 2.5, -0.5, -2}[r.Intn(5)] }
		flip := func(b float64) float64 {
			if r.Intn(10) == 0 {
				return -b
			}
			return b
		}
		lateAt, g := r.Intn(500), 0
		text := func(n int) string {
			w := make([]string, 1+r.Intn(n))
			for i := range w {
				w[i] = words[r.Intn(1+r.Intn(len(words)))]
			}
			if g >= lateAt && r.Intn(3) == 0 {
				w = append(w, "latecomer")
			}
			return strings.Join(w, " ")
		}

		want := New(StandardAnalyzer{})
		sources := make([]*Index, 1+r.Intn(4))
		masks := make([][]bool, len(sources))
		for si := range sources {
			boosts := []float64{boostOf(), boostOf(), boostOf()}
			docs := make([]*Document, r.Intn(300))
			src := New(StandardAnalyzer{})
			for i := range docs {
				if r.Intn(100) == 0 {
					boosts[r.Intn(len(boosts))] = boostOf()
				}
				d := &Document{Fields: []Field{
					{Name: "event", Text: words[r.Intn(3)], Boost: flip(boosts[0])},
					{Name: "narration", Text: text(10), Boost: flip(boosts[1])},
				}}
				if r.Intn(4) == 0 {
					d.Fields = append(d.Fields, Field{Name: "narration", Text: text(4), Boost: boostOf()})
				}
				if g >= lateAt {
					d.Fields = append(d.Fields, Field{Name: "late", Text: text(3), Boost: flip(boosts[2])})
				}
				docs[i] = d
				src.Add(d)
				g++
			}
			if r.Intn(3) == 0 {
				var err error
				if src, err = reopen(src, true); err != nil {
					t.Fatal(err)
				}
			}
			rate := r.Intn(4)
			if r.Intn(3) == 0 {
				masks[si] = make([]bool, len(docs))
			}
			for i, d := range docs {
				dead := rate > 0 && r.Intn(rate+1) == 0
				switch {
				case masks[si] == nil:
					if dead {
						src.Delete(i)
					}
				case dead:
					masks[si][i] = true
				case r.Intn(5) == 0:
					src.Delete(i) // after the snapshot: the merge keeps it
				}
				if !dead {
					want.Add(d)
				}
			}
			sources[si] = src
		}
		merged, _ := MergeIndexes(sources, masks)
		checkMergeMatchesBuild(t, merged, want)
	})
}
