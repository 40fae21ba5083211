package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// slack lists, for each column of ix that has room past its length, where
// it is and its length and capacity: the term columns and block tables,
// the document tables, the tombstones and the stored chunks ix alone
// holds, with the chunk list.
func slack(ix *Index) []string {
	var out []string
	check := func(what string, n, c int) {
		if c != n {
			out = append(out, fmt.Sprintf("%s: len %d cap %d", what, n, c))
		}
	}
	for name, fi := range ix.fields {
		for term, te := range fi.terms {
			at := name + "/" + term
			check(at+" docs", len(te.docs), cap(te.docs))
			check(at+" posEnd", len(te.posEnd), cap(te.posEnd))
			check(at+" positions", len(te.positions), cap(te.positions))
			check(at+" boosts", len(te.boosts), cap(te.boosts))
			check(at+" blocks", len(te.blocks), cap(te.blocks))
		}
		check(name+" docLen", len(fi.docLen), cap(fi.docLen))
		check(name+" present", len(fi.present), cap(fi.present))
		check(name+" boosts", len(fi.boosts), cap(fi.boosts))
	}
	check("deleted", len(ix.deleted), cap(ix.deleted))
	check("chunks", len(ix.stored.chunks), cap(ix.stored.chunks))
	check("first", len(ix.stored.first), cap(ix.stored.first))
	for ci, c := range ix.stored.chunks {
		if !c.shared.Load() {
			check(fmt.Sprintf("chunk %d data", ci), len(c.data), cap(c.data))
			check(fmt.Sprintf("chunk %d ends", ci), len(c.ends), cap(c.ends))
		}
	}
	return out
}

// TestSealedLayout pins the layout every heap base has, and that sealing
// changes nothing else. On a sealed build, on a merge of heap and mapped
// sources with tombstones and on a decode, every column has no room past
// its length; a sealed index encodes byte for byte like the same index
// unsealed; and Adds after Seal, one at a time or through AddDocs, build
// what one Add per document builds, each term's postings its own whatever
// its neighbours in the slab grow. The corpus is the kernel oracle's, with
// boosts that differ within a term (boost tables) and terms past one
// posting block.
func TestSealedLayout(t *testing.T) {
	docs := kernelCorpus(rand.New(rand.NewSource(7)), 1500)
	unsealed := indexOf(docs)
	if len(slack(unsealed)) == 0 {
		t.Fatal("a built index has no room past any column; the test shows nothing")
	}
	sealed := indexOf(docs)
	sealed.Seal()
	if s := slack(sealed); len(s) > 0 {
		t.Errorf("sealed build: %d columns with room, first %s", len(s), s[0])
	}
	wantRaw, wantTOC, err := encode(unsealed)
	if err != nil {
		t.Fatal(err)
	}
	raw, toc, err := encode(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, wantRaw) || !bytes.Equal(toc, wantTOC) {
		t.Error("the sealed index encodes differently from the same index unsealed")
	}

	decoded, err := openBytes(wantRaw, wantTOC, false)
	if err != nil {
		t.Fatal(err)
	}
	if s := slack(decoded); len(s) > 0 {
		t.Errorf("decode: %d columns with room, first %s", len(s), s[0])
	}

	// Three sources, the middle one mapped, tombstones in all of them.
	var sources []*Index
	for i, lo := range []int{0, 500, 1000} {
		src := indexOf(docs[lo : lo+500])
		if i == 1 {
			if src, err = reopen(src, true); err != nil {
				t.Fatal(err)
			}
		}
		for id := i; id < 500; id += 7 {
			src.Delete(id)
		}
		sources = append(sources, src)
	}
	merged, _ := MergeIndexes(sources, nil)
	if s := slack(merged); len(s) > 0 {
		t.Errorf("merge: %d columns with room, first %s", len(s), s[0])
	}
	boosted, multi := 0, 0
	for _, fi := range merged.fields {
		for _, te := range fi.terms {
			boosted += min(len(te.boosts), 1)
			multi += min(len(te.blocks), 1)
		}
	}
	if boosted == 0 || multi == 0 {
		t.Errorf("the merge has %d terms with a boost table and %d past one block; the corpus must have both", boosted, multi)
	}

	// Adds after Seal, on a build sealed halfway.
	half := len(docs) / 2
	one := indexOf(docs[:half])
	one.Seal()
	for _, d := range docs[half:] {
		one.Add(d)
	}
	checkColumnar(t, one, docs)
	batched := indexOf(docs[:half])
	batched.Seal()
	for i := half; i < len(docs); i += 97 {
		batched.AddDocs(docs[i:min(i+97, len(docs))], fieldsOnGoroutines)
	}
	for name, ix := range map[string]*Index{"Add": one, "AddDocs": batched} {
		raw, toc, err := encode(ix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, wantRaw) || !bytes.Equal(toc, wantTOC) {
			t.Errorf("%s after Seal encodes differently from one Add per document", name)
		}
	}
}
