package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode"
)

// roundTrip returns the index decoded from its own encoding.
func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf, ix.analyzer)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestZeroTermFieldValueCounts pins presence ≠ length > 0: a field value
// that analyzes to no terms still makes its document one of the field's
// documents, in the average length, the exported statistics and the codec's
// table, through a decode and through a merge.
func TestZeroTermFieldValueCounts(t *testing.T) {
	built := New(StandardAnalyzer{})
	built.Add(&Document{Fields: []Field{{Name: "f", Text: "the of"}}})
	built.Add(&Document{Fields: []Field{{Name: "f", Text: "goal scored"}}})
	merged, _ := MergeIndexes([]*Index{built}, nil)
	for name, ix := range map[string]*Index{"built": built, "decoded": roundTrip(t, built), "merged": merged} {
		fi := ix.fields["f"]
		if fi.docCount != 2 || !fi.hasEntry(0) || fi.lengthOf(0) != 0 || fi.boostOf(0) != 1 {
			t.Errorf("%s: docCount %d, doc 0 present %v length %d boost %v; want 2, true, 0, 1",
				name, fi.docCount, fi.hasEntry(0), fi.lengthOf(0), fi.boostOf(0))
		}
		if got := fi.avgLen(); got != 1 {
			t.Errorf("%s: avgLen %v, want 1", name, got)
		}
		if fs := ix.LocalStats().Fields["f"]; fs.Docs != 2 || fs.SumLen != 2 {
			t.Errorf("%s: FieldStats Docs %d SumLen %d, want 2 2", name, fs.Docs, fs.SumLen)
		}
		if fs := ix.DocStats(0).Fields["f"]; fs == nil || fs.Docs != 1 || fs.SumLen != 0 || len(fs.DocFreq) != 0 {
			t.Errorf("%s: DocStats(0) field %+v, want one document of no terms", name, fs)
		}
	}
}

// TestMultiValuedFieldContinuesPositions pins that a field's second value
// on a document continues the first's positions and length, and that df and
// Docs count the document once.
func TestMultiValuedFieldContinuesPositions(t *testing.T) {
	built := New(StandardAnalyzer{})
	built.Add(new(Document).Add("f", "goal kick").Add("g", "corner").Add("f", "goal line"))
	for name, ix := range map[string]*Index{"built": built, "decoded": roundTrip(t, built)} {
		for term, want := range map[string][]int{"goal": {0, 2}, "kick": {1}, "line": {3}} {
			pl := ix.Postings("f", term)
			if len(pl) != 1 || !reflect.DeepEqual(pl[0].Positions, want) {
				t.Errorf("%s: postings of %q = %v, want positions %v", name, term, pl, want)
			}
		}
		if l := ix.fields["f"].lengthOf(0); l != 4 {
			t.Errorf("%s: field length %d, want 4", name, l)
		}
		fs := ix.DocStats(0).Fields["f"]
		if fs.Docs != 1 || fs.SumLen != 4 || fs.DocFreq["goal"] != 1 {
			t.Errorf("%s: DocStats field %+v, want Docs 1 SumLen 4 df(goal) 1", name, fs)
		}
	}
}

// TestAddDocStatsSumsDocuments pins that accumulating several documents
// into one CorpusStats equals merging their separate DocStats.
func TestAddDocStatsSumsDocuments(t *testing.T) {
	ix := buildTestIndex()
	ix.Add(new(Document).Add("event", "Goal").Add("event", "goal").Add("narration", "goal goal"))
	sum, want := NewCorpusStats(), NewCorpusStats()
	for id := 0; id < ix.NumDocs(); id++ {
		if !ix.AddDocStats(sum, id) {
			t.Fatalf("AddDocStats(%d) = false", id)
		}
		want.Merge(ix.DocStats(id))
	}
	if !reflect.DeepEqual(sum, want) || !reflect.DeepEqual(sum, ix.LocalStats()) {
		t.Errorf("accumulated %+v\nmerged %+v\nlocal %+v", sum, want, ix.LocalStats())
	}
	if ix.AddDocStats(sum, ix.NumDocs()) || ix.DocStats(-1) != nil {
		t.Error("statistics for a document the index does not hold")
	}
}

// TestMergeMatchesRebuildAtFinalSizes merges three sources with tombstones
// (one through a liveness mask), a field and a term that first appear in a
// later source, and a field only tombstoned documents carry. The result
// must encode byte for byte like a from-scratch build of the survivors, and
// must have been allocated at its final size: every posting list full to
// its capacity, every table as long as the document count.
func TestMergeMatchesRebuildAtFinalSizes(t *testing.T) {
	doc := func(i int) *Document {
		d := new(Document).Add("narration", fmt.Sprintf("goal scored minute%d by player%d", i, i%7))
		d.Fields = append(d.Fields, Field{Name: "event", Text: "Goal goal", Boost: 2 + float64(i%3)})
		if i >= 150 {
			d.Add("late", fmt.Sprintf("late word%d", i%5))
		}
		if i == 3 {
			d.Add("doomed", "only a tombstoned document says this")
		}
		return d
	}
	var docs []*Document
	for i := 0; i < 450; i++ {
		docs = append(docs, doc(i))
	}
	dead := func(i int) bool { return i == 3 || i%4 == 1 || (i >= 300 && i < 310) }

	sources := []*Index{New(StandardAnalyzer{}), New(StandardAnalyzer{}), New(StandardAnalyzer{})}
	masks := make([][]bool, len(sources))
	want := New(StandardAnalyzer{})
	for i, d := range docs {
		si := i / 150
		id := sources[si].Add(d)
		switch {
		case !dead(i):
			want.Add(d)
		case si == 1: // the snapshot says dead, the source's own bits do not
			if masks[si] == nil {
				masks[si] = make([]bool, 150)
			}
			masks[si][id] = true
		default:
			sources[si].Delete(id)
		}
	}

	merged, remaps := MergeIndexes(sources, masks)
	next := 0
	for i := range docs {
		nid := remaps[i/150][i%150]
		if dead(i) != (nid < 0) || (nid >= 0 && nid != next) {
			t.Fatalf("doc %d: remapped to %d, dead %v, next live id %d", i, nid, dead(i), next)
		}
		if nid >= 0 {
			next++
		}
	}
	var got, rebuilt bytes.Buffer
	if err := merged.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&rebuilt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), rebuilt.Bytes()) {
		t.Error("merged index encodes differently from a build of the surviving documents")
	}
	if merged.HasField("doomed") || !merged.HasField("late") {
		t.Errorf("fields %v: want late, not doomed", merged.FieldNames())
	}
	if len(merged.docs) != next || cap(merged.docs) != next || len(merged.deleted) != next {
		t.Errorf("docs len %d cap %d, deleted %d; want %d", len(merged.docs), cap(merged.docs), len(merged.deleted), next)
	}
	for name, fi := range merged.fields {
		if len(fi.docLen) != next || len(fi.boost) != next {
			t.Errorf("field %s: tables of %d and %d documents, want %d", name, len(fi.docLen), len(fi.boost), next)
		}
		for term, te := range fi.terms {
			if len(te.postings) == 0 || cap(te.postings) != len(te.postings) {
				t.Errorf("field %s term %q: %d postings in capacity %d", name, term, len(te.postings), cap(te.postings))
			}
		}
	}
}

// TestFirstPositionsDoNotShareGrowth pins the slab's capacity-one cut: a
// second occurrence must grow its own posting, not write into the slot of
// the posting cut next.
func TestFirstPositionsDoNotShareGrowth(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).Add("f", "alpha beta alpha beta gamma alpha"))
	for term, want := range map[string][]int{"alpha": {0, 2, 5}, "beta": {1, 3}, "gamma": {4}} {
		if got := ix.Postings("f", term)[0].Positions; !reflect.DeepEqual(got, want) {
			t.Errorf("positions of %q = %v, want %v", term, got, want)
		}
	}
}

// referenceTokenize is the tokenizer as it was before the one-pass ASCII
// fast path: the oracle for appendTokens.
func referenceTokenize(text string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			if t := strings.Trim(text[start:end], "'"); t != "" {
				out = append(out, t)
			}
			start = -1
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return out
}

func TestTokenizeMatchesReference(t *testing.T) {
	alphabet := []string{"a", "Z", "7", "'", " ", "-", ".", "é", "ß", "٣", "日", " ", "\xff", "\xe2\x82", "_", "\x00", "~"}
	rng := rand.New(rand.NewSource(16))
	texts := []string{"", "'", "'''", "Eto'o", "4-4-2", "'quoted'", "it's", "x", "''a''b''"}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		texts = append(texts, sb.String())
	}
	for _, text := range texts {
		if got, want := Tokenize(text), referenceTokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
	}
}

// TestWriteAnalysisMatchesAnalyzer pins that the memoised write path yields
// exactly the analyzer's terms under every analyzer setting, before and
// after the memo fills, and that the memo stays inside its bounds.
func TestWriteAnalysisMatchesAnalyzer(t *testing.T) {
	long := strings.Repeat("x", memoMaxToken+1)
	for _, a := range []Analyzer{
		StandardAnalyzer{}, StandardAnalyzer{NoStemming: true}, StandardAnalyzer{KeepStopwords: true}, KeywordAnalyzer{},
	} {
		ix := New(a)
		for i := 0; i < 2*memoMaxEntries; i++ {
			text := fmt.Sprintf("The Running runners of %s token%d scored Scoring", long, i)
			for pass := 0; pass < 2; pass++ {
				got := append([]string(nil), ix.analyzeForWrite(text)...)
				if want := a.Analyze(text); !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
					t.Fatalf("%T %+v: write path %q, analyzer %q", a, a, got, want)
				}
			}
		}
		if len(ix.memo) > memoMaxEntries {
			t.Errorf("%T: memo holds %d tokens, cap %d", a, len(ix.memo), memoMaxEntries)
		}
		if _, ok := ix.memo[long]; ok {
			t.Errorf("%T: memo holds a %d-byte token, cap %d", a, len(long), memoMaxToken)
		}
	}
}

// hostileDocCount builds snapshots whose header claims 2^28 documents with
// almost no bytes behind the claim; withEntry adds one field whose only
// length entry names the last of them.
func hostileDocCount(version uint32, withEntry bool) []byte {
	const numDocs = 1 << 28
	b := []byte(codecMagic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, numDocs)
	if !withEntry {
		return binary.LittleEndian.AppendUint32(b, 0) // no fields
	}
	b = binary.LittleEndian.AppendUint32(b, 1) // one field
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 'f')
	b = binary.LittleEndian.AppendUint32(b, 0)    // no terms
	b = binary.LittleEndian.AppendUint32(b, 1)    // one length entry
	b = binary.AppendUvarint(b, numDocs)          // docID numDocs-1
	b = binary.AppendUvarint(b, 1)                // of one token
	return binary.LittleEndian.AppendUint32(b, 0) // no boosts
}

// TestDecodeHostileDocCount pins that a document count the stream does not
// back is refused before anything is sized by it.
func TestDecodeHostileDocCount(t *testing.T) {
	for _, version := range []uint32{CodecVersionV1, CodecVersionV2, CodecVersionCurrent} {
		for _, withEntry := range []bool{false, true} {
			data := hostileDocCount(version, withEntry)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(bytes.NewReader(data), nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("v%d entry=%v: accepted 2^28 documents backed by %d bytes", version, withEntry, len(data))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Errorf("v%d entry=%v: allocated %d bytes decoding %d", version, withEntry, grew, len(data))
			}
		}
	}
}
