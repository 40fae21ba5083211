package index

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// storedTestBoosts are the boosts the stored byte form must keep bit for
// bit: zero (no boost bytes), negative zero (boost bytes, though it equals
// zero), an ordinary value, and two NaNs with different payloads.
var storedTestBoosts = []float64{0, math.Copysign(0, -1), 2.5, math.NaN(), math.Float64frombits(0x7ff4000000000123)}

// storedTestDoc is document i of the stored-region tests. Every 50th
// document from the 7th has no fields; the others carry a multi-valued
// field, an empty text, a boost from storedTestBoosts, one of 70
// stored-only names (so the name table passes 64 entries and name tags
// take two bytes) and, from document 300 on, a field no earlier document
// has.
func storedTestDoc(i int) *Document {
	d := new(Document)
	if i%50 == 7 {
		return d
	}
	d.Add("narration", fmt.Sprintf("player%d scores in minute %d", i%11, i))
	d.AddBoosted("_boost", "b", storedTestBoosts[i%len(storedTestBoosts)])
	d.Add("empty", "")
	d.Add(fmt.Sprintf("_n%d", i%70), strings.Repeat("x", i%5))
	if i >= 300 {
		d.Add("late", fmt.Sprintf("late word%d", i%3))
	}
	d.AddBoosted("narration", "second value", 1.5)
	return d
}

func storedTestDocs(lo, hi int) []*Document {
	var docs []*Document
	for i := lo; i < hi; i++ {
		docs = append(docs, storedTestDoc(i))
	}
	return docs
}

// sameDoc compares documents field by field, boosts by their bits.
func sameDoc(a, b *Document) bool {
	if a == nil || b == nil || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i, x := range a.Fields {
		y := b.Fields[i]
		if x.Name != y.Name || x.Text != y.Text || math.Float64bits(x.Boost) != math.Float64bits(y.Boost) {
			return false
		}
	}
	return true
}

// TestStoredRoundTrip adds every shape the stored byte form has a branch
// for and reads each document back through the bookkeeping readers and
// then through Doc, which decodes it afresh on every call: none of them
// caches a document on a heap index.
func TestStoredRoundTrip(t *testing.T) {
	docs := storedTestDocs(0, 400)
	ix := New(nil)
	for _, d := range docs {
		ix.Add(d)
	}
	if len(ix.stored.names) <= 64 {
		t.Fatalf("%d field names; the fixture needs more than 64", len(ix.stored.names))
	}
	if got := fmt.Sprint(ix.stored.first); got != "[0 128 256 384]" {
		t.Fatalf("chunks start at %s", got)
	}

	sum, sc := NewCorpusStats(), new(Scratch)
	for id, d := range docs {
		for _, name := range []string{"narration", "empty", "late", "_boost", "absent"} {
			if got, want := ix.Meta(id, name), d.Get(name); got != want {
				t.Fatalf("Meta(%d, %q) = %q, want %q", id, name, got, want)
			}
		}
		ix.AddDocStats(sum, id, sc)
	}
	if n := ix.CachedDocs(); n != 0 {
		t.Fatalf("Meta and AddDocStats cached %d documents", n)
	}
	if !reflect.DeepEqual(sum, ix.LocalStats()) {
		t.Error("the documents' AddDocStats do not add up to LocalStats")
	}

	for id, want := range docs {
		got := ix.Doc(id)
		if !sameDoc(got, want) {
			t.Fatalf("Doc(%d) = %+v, want %+v", id, got, want)
		}
		if ix.Doc(id) == got {
			t.Fatalf("Doc(%d) returned a decode it kept", id)
		}
	}
	if n := ix.CachedDocs(); n != 0 {
		t.Errorf("%d documents cached after Doc of all %d; a heap index keeps none", n, len(docs))
	}
	if ix.Doc(-1) != nil || ix.Doc(len(docs)) != nil || ix.Meta(len(docs), "narration") != "" {
		t.Error("out-of-range reads must be empty")
	}

	// The index keeps no reference to a document it was given.
	d := new(Document).Add("narration", "before")
	id := ix.Add(d)
	d.Fields[0].Text = "after"
	if got := ix.Doc(id).Get("narration"); got != "before" {
		t.Errorf("changing an added document shows in the index: %q", got)
	}
}

// TestStoredMergeSharesWholeChunks merges a source of four chunks whose
// first two each lose a document at their common boundary with a one-chunk
// source that loses none: the two damaged chunks are rewritten, every
// other chunk is shared by pointer, and no index appends to a shared chunk
// afterwards. The merge must encode like a build of the survivors, and its
// documents must survive EncodeWithTOC → Decode and a mapped open.
func TestStoredMergeSharesWholeChunks(t *testing.T) {
	docsA, docsB := storedTestDocs(0, 400), storedTestDocs(400, 450)
	a, b := New(nil), New(nil)
	for _, d := range docsA {
		a.Add(d)
	}
	for _, d := range docsB {
		b.Add(d)
	}
	a.Delete(127)
	a.Delete(128)

	merged, remaps := MergeIndexes([]*Index{a, b}, nil)
	inMerged := map[*storedChunk]bool{}
	for _, c := range merged.stored.chunks {
		inMerged[c] = true
	}
	for ci, c := range a.stored.chunks {
		if share := ci >= 2; inMerged[c] != share || c.shared.Load() != share {
			t.Errorf("source chunk %d: in merged %v, marked shared %v; want %v", ci, inMerged[c], c.shared.Load(), share)
		}
	}
	if c := b.stored.chunks[0]; !inMerged[c] || !c.shared.Load() {
		t.Error("the second source's only chunk is not shared")
	}
	if got := fmt.Sprint(merged.stored.first); got != "[0 128 254 382 398]" {
		t.Errorf("merged chunks start at %s", got)
	}

	want := New(nil)
	var survivors []*Document
	for si, docs := range [][]*Document{docsA, docsB} {
		for id, nid := range remaps[si] {
			if nid < 0 {
				continue
			}
			survivors = append(survivors, docs[id])
			want.Add(docs[id])
			if !sameDoc(merged.Doc(nid), docs[id]) {
				t.Fatalf("source %d doc %d: merged Doc(%d) differs", si, id, nid)
			}
		}
	}
	got, _, err := encode(merged)
	rebuilt, _, err2 := encode(want)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if !bytes.Equal(got, rebuilt) {
		t.Error("merged index encodes differently from a build of the surviving documents")
	}
	heap, mapped, _, _ := openMappedPair(t, merged)
	for id, d := range survivors {
		if !sameDoc(heap.Doc(id), d) || !sameDoc(mapped.Doc(id), d) {
			t.Fatalf("doc %d does not survive EncodeWithTOC → Decode and OpenMapped", id)
		}
	}

	// Adds after the merge open chunks of their own on both sides.
	extra := func(i int) *Document { return new(Document).Add("narration", fmt.Sprintf("extra %d", i)) }
	lastA, lastM := a.stored.chunks[3], merged.stored.chunks[len(merged.stored.chunks)-1]
	endsA, endsM := len(lastA.ends), len(lastM.ends)
	for i, ix := range []*Index{a, b, merged} {
		id := ix.Add(extra(i))
		if got := ix.Doc(id).Get("narration"); got != fmt.Sprintf("extra %d", i) {
			t.Errorf("index %d: added document reads %q", i, got)
		}
		if c := ix.stored.chunks[len(ix.stored.chunks)-1]; c.shared.Load() || len(c.ends) != 1 {
			t.Errorf("index %d: the add did not open a chunk of its own", i)
		}
	}
	if len(lastA.ends) != endsA || len(lastM.ends) != endsM || len(b.stored.chunks[0].ends) != len(docsB) {
		t.Error("a shared chunk was appended to")
	}
	for id, d := range survivors {
		if !sameDoc(merged.Doc(id), d) {
			t.Fatalf("merged doc %d changed after the adds", id)
		}
	}
}

// TestStoredDocConcurrentFirstTouch has many goroutines Doc the same cold
// documents of a heap and a mapped index at once (run it under -race):
// every caller sees the same decode, and on a mapped index the same pointer.
func TestStoredDocConcurrentFirstTouch(t *testing.T) {
	docs := storedTestDocs(0, 300)
	ix := New(nil)
	for _, d := range docs {
		ix.Add(d)
	}
	_, mapped, _, _ := openMappedPair(t, ix)
	ids := []int{0, 126, 127, 128, 129, 299}
	for _, x := range []*Index{ix, mapped} {
		const workers = 16
		got := make([][]*Document, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, id := range ids {
					got[g] = append(got[g], x.Doc(id))
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for k, id := range ids {
				if !sameDoc(got[g][k], docs[id]) {
					t.Fatalf("mapped %v worker %d: Doc(%d) differs", x.Mapped(), g, id)
				}
				if x.Mapped() && got[g][k] != got[0][k] {
					t.Fatalf("worker %d: Doc(%d) returned another decode than worker 0", g, id)
				}
			}
		}
	}
}
