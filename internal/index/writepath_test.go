package index

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode"
)

// roundTrip returns the index decoded from its own encoding.
func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	got, err := reopen(ix, false)
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
	var sc Scratch
	for id := 0; id < ix.NumDocs(); id++ {
		if !ix.AddDocStats(sum, id, &sc) {
			t.Fatalf("AddDocStats(%d) = false", id)
		}
		want.Merge(ix.DocStats(id))
	}
	if !reflect.DeepEqual(sum, want) || !reflect.DeepEqual(sum, ix.LocalStats()) {
		t.Errorf("accumulated %+v\nmerged %+v\nlocal %+v", sum, want, ix.LocalStats())
	}
	if ix.AddDocStats(sum, ix.NumDocs(), &sc) || ix.DocStats(-1) != nil {
		t.Error("statistics for a document the index does not hold")
	}
}

// TestAddDocStatsReusedScratch sums documents through one Scratch as an
// upsert's removal sum does: a field repeated apart from its first value
// (a term shared by both values counts once for the document), terms
// shared across documents, and enough distinct terms that the Scratch
// starts its term numbering over between documents. The sum must equal
// the index's own statistics.
func TestAddDocStatsReusedScratch(t *testing.T) {
	ix := New(StandardAnalyzer{})
	for i := 0; i < 1200; i++ {
		d := new(Document).Add("event", "goal shot").Add("narration", fmt.Sprintf("goal w%da w%db w%dc w%dd", i, i, i, i))
		d.Add("_meta", "stored only").Add("event", fmt.Sprintf("goal w%da", i))
		ix.Add(d)
	}
	sum := NewCorpusStats()
	var sc Scratch
	for id := 0; id < ix.NumDocs(); id++ {
		ix.AddDocStats(sum, id, &sc)
	}
	if !reflect.DeepEqual(sum, ix.LocalStats()) {
		t.Errorf("accumulated statistics differ from the index's own")
	}
	if fs := sum.Fields["event"]; fs.Docs != 1200 || fs.DocFreq["goal"] != 1200 || fs.DocFreq["w7a"] != 1 {
		t.Errorf("event: Docs %d, df(goal) %d, df(w7a) %d; want 1200, 1200, 1", fs.Docs, fs.DocFreq["goal"], fs.DocFreq["w7a"])
	}
}

// TestMergeMatchesRebuildAtFinalSizes merges three sources with tombstones
// (one through a liveness mask), a field and a term that first appear in a
// later source, and a field only tombstoned documents carry. The result
// must encode byte for byte like a from-scratch build of the survivors, and
// must have been allocated at its final size: every posting list full to
// its capacity, every table as long as the document count (a boost column
// collapsed to one value holds none).
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
	got, _, err := encode(merged)
	rebuilt, _, err2 := encode(want)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if !bytes.Equal(got, rebuilt) {
		t.Error("merged index encodes differently from a build of the surviving documents")
	}
	if merged.HasField("doomed") || !merged.HasField("late") {
		t.Errorf("fields %v: want late, not doomed", merged.FieldNames())
	}
	if merged.stored.n != next || len(merged.deleted) != next {
		t.Errorf("%d stored documents, deleted %d; want %d", merged.stored.n, len(merged.deleted), next)
	}
	for name, fi := range merged.fields {
		if len(fi.docLen) != next || (len(fi.boosts) != 0 && len(fi.boosts) != next) {
			t.Errorf("field %s: tables of %d and %d documents, want %d (0 boosts for a collapsed column)", name, len(fi.docLen), len(fi.boosts), next)
		}
		for term, te := range fi.terms {
			if len(te.docs) == 0 || cap(te.docs) != len(te.docs) || cap(te.posEnd) != len(te.posEnd) ||
				cap(te.positions) != len(te.positions) || cap(te.boosts) != len(te.boosts) {
				t.Errorf("field %s term %q: %d postings in capacities %d, %d, %d positions in %d, %d boosts in %d", name, term,
					len(te.docs), cap(te.docs), cap(te.posEnd), len(te.positions), cap(te.positions), len(te.boosts), cap(te.boosts))
			}
		}
	}
}

// TestMergeBoostTablesAcrossSources merges three sources whose boosts and
// blocks only a merge brings together. Field "shift" is indexed at one
// boost inside each source but not at the same one in all, so its boost
// table appears partway through the merge; "flat" is indexed at one boost
// everywhere and must stay table-free; and the "long" term "shot" spans
// several blocks with tombstones inside the first, which moves every later
// block boundary: its documents grow longer and its boosts larger from one
// to the next, so a block's bounds move with either of its ends. The merge
// must encode byte for byte like a build of the survivors and carry the
// caps and blocks a decode of that build does.
func TestMergeBoostTablesAcrossSources(t *testing.T) {
	sources := []*Index{New(StandardAnalyzer{}), New(StandardAnalyzer{}), New(StandardAnalyzer{})}
	want := New(StandardAnalyzer{})
	for si, src := range sources {
		for i := 0; i < 200; i++ {
			d := &Document{Fields: []Field{
				{Name: "shift", Text: "goal scored", Boost: []float64{2, 3, -1}[si]},
				{Name: "flat", Text: "corner kick", Boost: 1.5},
				{Name: "long", Text: strings.Repeat("shot ", 1+i/50) + strings.Repeat("pad ", i), Boost: 1 + float64(i)/256},
			}}
			id := src.Add(d)
			if si == 0 && (i == 5 || i == 17 || i == 40) || si == 1 && i%50 == 3 {
				src.Delete(id)
				continue
			}
			want.Add(d)
		}
	}
	merged, _ := MergeIndexes(sources, nil)
	checkMergeMatchesBuild(t, merged, want)
	if te := merged.fields["shift"].terms["goal"]; len(te.boosts) != len(te.docs) || te.boostAt(0) != 2 || te.boostAt(len(te.docs)-1) != -1 {
		t.Errorf("shift: %d boosts for %d postings, first %v, last %v; want a table from 2 to -1",
			len(te.boosts), len(te.docs), te.boostAt(0), te.boostAt(len(te.docs)-1))
	}
	if te := merged.fields["flat"].terms["corner"]; len(te.boosts) != 0 || te.boost != 1.5 {
		t.Errorf("flat: %d boosts, boost %v; want no table and 1.5", len(te.boosts), te.boost)
	}
	if te := merged.fields["long"].terms["shot"]; len(te.blocks) != 5 || te.docs[postingBlockSize] != postingBlockSize {
		t.Errorf("long: %d blocks, second starting at doc %d; want 5 blocks, the second at %d",
			len(te.blocks), te.docs[postingBlockSize], postingBlockSize)
	}
}

// checkMergeMatchesBuild requires merged to encode byte for byte like want,
// a build of the merge's surviving documents, and each of its terms to
// carry the cap and blocks a decode of want derives: the exact ones, which
// the encoding does not show, since the codec computes its own.
func checkMergeMatchesBuild(t *testing.T, merged, want *Index) {
	t.Helper()
	got, _, err := encode(merged)
	rebuilt, _, err2 := encode(want)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if !bytes.Equal(got, rebuilt) {
		t.Error("merged index encodes differently from a build of the surviving documents")
	}
	exact := roundTrip(t, want)
	for name, fi := range merged.fields {
		for term, te := range fi.terms {
			we := exact.fields[name].terms[term]
			if we == nil || te.cap != we.cap || !reflect.DeepEqual(te.blocks, we.blocks) {
				t.Errorf("field %s term %q: cap %+v blocks %+v, want the exact ones", name, term, te.cap, te.blocks)
			}
		}
	}
}

// TestBoostColumnCollapse pins the document table's boost column: one
// value while every document carrying a field was indexed at the same boost
// bits, a dense column from the first write that differs. A uniform field
// keeps no column through Add, Decode, OpenMapped and a merge of uniform
// sources; −0 against +0, NaN payloads, a multi-valued field's last write
// and a merge of sources collapsed at different values decide by bits. Each
// form encodes like the index it came from, and a decoded or mapped copy
// re-encodes byte for byte.
func TestBoostColumnCollapse(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	// build indexes one document per boost, each with field f at it; a
	// multi-valued document lists its boosts in write order.
	build := func(docs ...[]float64) *Index {
		ix := New(StandardAnalyzer{})
		for i, bs := range docs {
			d := &Document{}
			for _, b := range bs {
				d.Fields = append(d.Fields, Field{Name: "f", Text: fmt.Sprintf("goal w%d", i), Boost: b})
			}
			ix.Add(d)
		}
		return ix
	}
	check := func(name string, ix *Index, dense bool, want []float64) {
		t.Helper()
		fi := ix.fields["f"]
		if (fi.boosts != nil) != dense {
			t.Errorf("%s: dense column %v, want %v", name, fi.boosts != nil, dense)
		}
		for id, w := range want {
			if got := fi.boostOf(id); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("%s: doc %d boost %v, want %v", name, id, got, w)
			}
		}
	}
	// reencode checks that ix's decoded and mapped copies re-encode to its
	// own bytes, and that a copy is collapsed exactly when ix's boosts are
	// uniform: the codec writes one value for them.
	reencode := func(name string, ix *Index, want []float64) {
		t.Helper()
		raw, toc, err := encode(ix)
		if err != nil {
			t.Fatal(err)
		}
		uniform, _ := ix.fields["f"].uniformBoost()
		for _, mapped := range []bool{false, true} {
			got, err := openBytes(raw, toc, mapped)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s reopened (mapped %v)", name, mapped), got, !uniform, want)
			if again, _, err := encode(got); err != nil || !bytes.Equal(again, raw) {
				t.Errorf("%s (mapped %v): re-encodes differently (%v)", name, mapped, err)
			}
		}
	}
	one := func(bs ...float64) [][]float64 {
		out := make([][]float64, len(bs))
		for i, b := range bs {
			out[i] = []float64{b}
		}
		return out
	}

	for _, c := range []struct {
		name  string
		docs  [][]float64
		dense bool
		want  []float64
	}{
		{"uniform", one(1.5, 1.5, 1.5, 1.5), false, []float64{1.5, 1.5, 1.5, 1.5}},
		{"default boost", one(0, 1, 0), false, []float64{1, 1, 1}},
		{"one diverging write", one(1.5, 1.5, 2, 1.5), true, []float64{1.5, 1.5, 2, 1.5}},
		{"same NaN payload", one(nan1, nan1), false, []float64{nan1, nan1}},
		{"two NaN payloads", one(nan1, nan2), true, []float64{nan1, nan2}},
		{"last write wins", [][]float64{{1, 2}, {2}}, false, []float64{2, 2}},
		{"last write diverges", [][]float64{{2}, {2, 3}}, true, []float64{2, 3}},
		{"last write agrees again", [][]float64{{2}, {2, 3, 2}}, true, []float64{2, 2}},
	} {
		ix := build(c.docs...)
		check(c.name, ix, c.dense, c.want)
		reencode(c.name, ix, c.want)
	}

	// −0 and +0 are one boost to Add (0 means "unset", indexed at 1), so
	// they reach the table only through its own add.
	negZero := math.Copysign(0, -1)
	var zeros, negs docTable
	zeros.add(0, 1, 0)
	zeros.add(1, 1, negZero)
	negs.add(0, 1, negZero)
	negs.add(3, 1, negZero)
	if zeros.boosts == nil || math.Signbit(zeros.boostOf(0)) || !math.Signbit(zeros.boostOf(1)) {
		t.Errorf("+0 then −0: column %v, want dense [0 −0]", zeros.boosts)
	}
	if u, _ := zeros.uniformBoost(); u {
		t.Error("+0 and −0 reported uniform")
	}
	if negs.boosts != nil || !math.Signbit(negs.boostOf(3)) || negs.boostOf(2) != 0 {
		t.Errorf("−0 twice: column %v, boost %v", negs.boosts, negs.boostOf(3))
	}

	// Merges: uniform sources at one value stay collapsed; sources
	// collapsed at different values build the column, and both encode like
	// a build of the same documents.
	for _, c := range []struct {
		name    string
		a, b    float64
		dense   bool
		wantAll []float64
	}{
		{"merge of uniform sources", 1.5, 1.5, false, []float64{1.5, 1.5, 1.5, 1.5}},
		{"merge of sources collapsed apart", 1.5, 2, true, []float64{1.5, 1.5, 2, 2}},
	} {
		a, b := build(one(c.a, c.a)...), build(one(c.b, c.b)...)
		check(c.name+" source a", a, false, nil)
		check(c.name+" source b", b, false, nil)
		merged, _ := MergeIndexes([]*Index{a, b}, nil)
		check(c.name, merged, c.dense, c.wantAll)
		want := New(StandardAnalyzer{})
		for i, src := range []*Index{a, a, b, b} {
			want.Add(src.Doc(i % 2))
		}
		got, _, err := encode(merged)
		rebuilt, _, err2 := encode(want)
		if err != nil || err2 != nil || !bytes.Equal(got, rebuilt) {
			t.Errorf("%s: encodes differently from a build of its documents (%v, %v)", c.name, err, err2)
		}
	}
}

// TestBoostTablesDecodeAsWritten feeds readTables hand-built tables over
// documents 0, 2 and 5 of 8. A flag-0 table covering every document of the
// length table collapses to its value; one that misses some gives those
// boost 0; a boost for a document without a length entry is checked and
// dropped. Each reads the boosts a dense column filled entry by entry reads,
// and the check-only pass consumes the same bytes.
func TestBoostTablesDecodeAsWritten(t *testing.T) {
	lens := []int{0, 2, 5}
	table := func(flag byte, ids []int, vals []float64) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeU32(bw, uint32(len(lens)))
		prev := -1
		for _, id := range lens {
			writeUvarint(bw, uint64(id-prev))
			writeUvarint(bw, 1)
			prev = id
		}
		writeU32(bw, uint32(len(ids)))
		if len(ids) > 0 {
			bw.WriteByte(flag)
		}
		prev = -1
		for k, id := range ids {
			writeUvarint(bw, uint64(id-prev))
			prev = id
			if flag == 1 {
				writeF64(bw, vals[k])
			}
		}
		if flag == 0 && len(ids) > 0 {
			writeF64(bw, vals[0])
		}
		bw.Flush()
		return buf.Bytes()
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name  string
		flag  byte
		ids   []int
		vals  []float64
		dense bool
		want  []float64 // by docID 0..5
	}{
		{"flag 0 over the length table", 0, []int{0, 2, 5}, []float64{2.5}, false, []float64{2.5, 0, 2.5, 0, 0, 2.5}},
		{"flag 0 missing a document", 0, []int{0, 5}, []float64{2.5}, true, []float64{2.5, 0, 0, 0, 0, 2.5}},
		{"flag 0 with an extra document", 0, []int{0, 2, 3, 5}, []float64{2.5}, false, []float64{2.5, 0, 2.5, 0, 0, 2.5}},
		{"flag 0 over other documents", 0, []int{1, 3}, []float64{2.5}, false, []float64{0, 0, 0, 0, 0, 0}},
		{"flag 1", 1, []int{0, 2, 5}, []float64{1, negZero, 1}, true, []float64{1, 0, negZero, 0, 0, 1}},
		{"flag 1 at one value", 1, []int{0, 2, 5}, []float64{3, 3, 3}, true, []float64{3, 0, 3, 0, 0, 3}},
		{"no boost table", 0, nil, nil, false, []float64{0, 0, 0, 0, 0, 0}},
	} {
		raw := table(c.flag, c.ids, c.vals)
		check := byteReader{b: raw}
		if err := readTables(&check, 8, nil); err != nil || check.pos != len(raw) {
			t.Errorf("%s: check-only pass: %v, %d of %d bytes", c.name, err, check.pos, len(raw))
		}
		tb := newDocTable(8)
		r := byteReader{b: raw}
		if err := readTables(&r, 8, &tb); err != nil || r.pos != len(raw) {
			t.Fatalf("%s: %v, %d of %d bytes", c.name, err, r.pos, len(raw))
		}
		if (tb.boosts != nil) != c.dense {
			t.Errorf("%s: dense column %v, want %v", c.name, tb.boosts != nil, c.dense)
		}
		for id, w := range c.want {
			if got := tb.boostOf(id); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("%s: doc %d boost %v, want %v", c.name, id, got, w)
			}
		}
	}
}

// TestMergeHoldsInt32Edges seeds field lengths next to the segment limit of
// the 32-bit position ends, the way TestAddPanicsAtInt32Edges does, in the
// sources of a merge. Survivors whose lengths add up to math.MaxUint32
// merge exactly; one token more panics with Add's message, from the
// document table before any position end is written, so none wraps. A
// tombstoned document's length does not count.
func TestMergeHoldsInt32Edges(t *testing.T) {
	seeded := func(docLen int32, dead bool) *Index {
		ix := New(StandardAnalyzer{})
		ix.Add(new(Document).Add("f", "goal"))
		ix.fields["f"].docTable = docTable{docLen: []int32{docLen}, boost: 1, present: []uint64{1}, docCount: 1, sumLen: int(docLen)}
		if dead {
			ix.Delete(0)
		}
		return ix
	}
	merge := func(last int32, dead bool) (msg string, merged *Index) {
		defer func() { msg, _ = recover().(string) }()
		merged, _ = MergeIndexes([]*Index{seeded(math.MaxInt32, false), seeded(math.MaxInt32, false), seeded(last, dead)}, nil)
		return "", merged
	}

	for _, c := range []struct {
		last         int32
		dead         bool
		sumLen, docs int
	}{{1, false, math.MaxUint32, 3}, {2, true, math.MaxUint32 - 1, 2}} {
		msg, merged := merge(c.last, c.dead)
		if msg != "" {
			t.Errorf("lengths to %d: panic %q", c.sumLen, msg)
			continue
		}
		fi := merged.fields["f"]
		te := fi.terms["goal"]
		if fi.sumLen != c.sumLen || fi.lengthOf(1) != math.MaxInt32 || len(te.docs) != c.docs ||
			int(te.posEnd[c.docs-1]) != c.docs || len(te.positions) != c.docs {
			t.Errorf("lengths to %d: sumLen %d, length %d, postings %v ending positions at %v of %d",
				c.sumLen, fi.sumLen, fi.lengthOf(1), te.docs, te.posEnd, len(te.positions))
		}
	}
	if msg, _ := merge(2, false); !strings.Contains(msg, "math.MaxUint32") {
		t.Errorf("lengths past math.MaxUint32: panic %q, want Add's", msg)
	}
}

// referenceEntry is a term as the heap index kept it before its posting
// lists became columnar: one Posting struct per document, each with a
// position slice of its own.
type referenceEntry struct {
	postings []Posting
	cap      termCap
	blocks   []termCap
}

// referenceField is one field of referencePostings.
type referenceField struct {
	terms map[string]*referenceEntry
	docTable
}

func (fi *referenceField) exactCap(ps []Posting) termCap {
	c := termCap{minLen: math.MaxInt}
	for _, p := range ps {
		c.observe(len(p.Positions), fi.lengthOf(p.DocID), p.Boost)
	}
	return c
}

// referencePostings indexes the documents with Add's loop as it was over
// []Posting: the oracle for the columnar lists, their caps and their blocks.
func referencePostings(a Analyzer, docs []*Document) map[string]*referenceField {
	fields := map[string]*referenceField{}
	for id, d := range docs {
		for _, f := range d.Fields {
			if len(f.Name) > 0 && f.Name[0] == '_' {
				continue
			}
			fi := fields[f.Name]
			if fi == nil {
				fi = &referenceField{terms: map[string]*referenceEntry{}}
				fields[f.Name] = fi
			}
			boost := f.Boost
			if boost == 0 {
				boost = 1
			}
			terms := a.Analyze(f.Text)
			base := fi.add(id, len(terms), boost)
			dlen := base + len(terms)
			for pos, term := range terms {
				te := fi.terms[term]
				if te == nil {
					te = &referenceEntry{cap: termCap{minLen: dlen, maxBoost: boost}}
					fi.terms[term] = te
				}
				var p *Posting
				if n := len(te.postings); n > 0 && te.postings[n-1].DocID == id {
					p = &te.postings[n-1]
					p.Positions = append(p.Positions, base+pos)
				} else {
					te.postings = append(te.postings, Posting{DocID: id, Positions: []int{base + pos}, Boost: boost})
					p = &te.postings[n]
				}
				te.cap.observe(len(p.Positions), dlen, p.Boost)
				if len(te.postings) > postingBlockSize {
					cur := (len(te.postings) - 1) / postingBlockSize
					for len(te.blocks) < cur {
						s := len(te.blocks) * postingBlockSize
						te.blocks = append(te.blocks, fi.exactCap(te.postings[s:s+postingBlockSize]))
					}
					if cur == len(te.blocks) {
						te.blocks = append(te.blocks, termCap{maxFreq: len(p.Positions), minLen: dlen, maxBoost: p.Boost})
					} else {
						te.blocks[cur].observe(len(p.Positions), dlen, p.Boost)
					}
				}
			}
		}
	}
	return fields
}

// CheckColumnarPostings Adds the documents to a fresh index and requires
// every (field, term) list, cap and block table, and every field table, to
// be what referencePostings keeps, and the columns to be consistent. It is
// exported for golden_test.go, whose documents this package cannot import.
func CheckColumnarPostings(t *testing.T, docs []*Document) *Index {
	t.Helper()
	ix := New(StandardAnalyzer{})
	for _, d := range docs {
		ix.Add(d)
	}
	want := referencePostings(StandardAnalyzer{}, docs)
	if len(ix.fields) != len(want) {
		t.Errorf("%d fields, want %d", len(ix.fields), len(want))
	}
	for name, wf := range want {
		fi := ix.fields[name]
		if fi == nil {
			t.Errorf("field %s is missing", name)
			continue
		}
		if !reflect.DeepEqual(fi.docTable, wf.docTable) {
			t.Errorf("field %s: document table differs", name)
		}
		if len(fi.terms) != len(wf.terms) {
			t.Errorf("field %s: %d terms, want %d", name, len(fi.terms), len(wf.terms))
		}
		for term, we := range wf.terms {
			te := fi.terms[term]
			if te == nil {
				t.Errorf("field %s: term %q is missing", name, term)
				continue
			}
			if got := ix.Postings(name, term); !reflect.DeepEqual(got, we.postings) {
				t.Errorf("field %s term %q: postings %v, want %v", name, term, got, we.postings)
			}
			if te.cap != we.cap || !reflect.DeepEqual(te.blocks, we.blocks) {
				t.Errorf("field %s term %q: cap %+v blocks %+v, want %+v %+v", name, term, te.cap, te.blocks, we.cap, we.blocks)
			}
			n := len(te.docs)
			uniform := true
			for _, p := range we.postings {
				uniform = uniform && math.Float64bits(p.Boost) == math.Float64bits(we.postings[0].Boost)
			}
			if len(te.posEnd) != n || int(te.posEnd[n-1]) != len(te.positions) || uniform != (te.boosts == nil) ||
				(!uniform && len(te.boosts) != n) {
				t.Errorf("field %s term %q: %d docs, %d position ends to %d of %d positions, %d boosts (uniform %v)",
					name, term, n, len(te.posEnd), te.posEnd[n-1], len(te.positions), len(te.boosts), uniform)
			}
		}
	}
	return ix
}

// TestColumnarPostingsMatchReference runs the hand cases of the columnar
// write path against the []Posting reference; golden_test.go runs the
// benchmark corpus's pages through the same check.
func TestColumnarPostingsMatchReference(t *testing.T) {
	boosted := func(text string, boost float64) *Document {
		return &Document{Fields: []Field{{Name: "f", Text: text, Boost: boost}}}
	}
	var docs []*Document
	// One term in two values of one field at two boosts on one document:
	// the first value's boost is the posting's. The next document's differs,
	// which is where the term's boost table materializes.
	two := boosted("goal", 2)
	two.Fields = append(two.Fields, Field{Name: "f", Text: "goal kick", Boost: 3})
	docs = append(docs, two, boosted("goal", 3))
	// A repeated term, a multi-valued field continuing its positions around
	// another field, and a value that analyzes to no terms.
	docs = append(docs,
		boosted("save save corner save", 1),
		new(Document).Add("f", "free kick").Add("g", "corner").Add("f", "kick taken"),
		boosted("the of", 1))
	// Terms on exactly 128 and 129 documents, and one past two blocks whose
	// frequency and boost vary.
	for i := 0; i < 300; i++ {
		text := "shot" + strings.Repeat(" shot", i%3)
		if i < postingBlockSize {
			text += " exact"
		}
		if i <= postingBlockSize {
			text += " edge"
		}
		docs = append(docs, boosted(text, 1+float64(i%4)/2))
	}
	ix := CheckColumnarPostings(t, docs)
	terms := ix.fields["f"].terms
	if te := terms["goal"]; te.boostAt(0) != 2 || te.boostAt(1) != 3 || te.freq(0) != 2 {
		t.Errorf("goal: boosts %v, %v and frequency %d; want 2, 3 and 2", te.boostAt(0), te.boostAt(1), te.freq(0))
	}
	if te := terms["kick"]; !reflect.DeepEqual(te.positionsAt(1), []int32{1, 2}) {
		t.Errorf("kick: positions %v in the two-valued document, want [1 2]", te.positionsAt(1))
	}
	for term, blocks := range map[string]int{"exact": 0, "edg": 2, "shot": 3} {
		if got := len(terms[term].blocks); got != blocks {
			t.Errorf("%s: %d block entries, want %d", term, got, blocks)
		}
	}
}

// TestMergeDoesNotAliasSources pins that a merged index owns its postings:
// nothing done to a source afterwards shows in it, and none of its columns
// is a source's.
func TestMergeDoesNotAliasSources(t *testing.T) {
	a, b := New(StandardAnalyzer{}), New(StandardAnalyzer{})
	for i := 0; i < 40; i++ {
		a.Add(new(Document).Add("f", fmt.Sprintf("goal scored goal player%d", i%5)))
		b.Add(new(Document).Add("f", fmt.Sprintf("goal saved keeper%d", i%3)))
	}
	merged, _ := MergeIndexes([]*Index{a, b}, nil)
	queries := []Query{
		TermQuery{Field: "f", Term: "goal"},
		PhraseQuery{Field: "f", Terms: []string{"goal", "scored"}},
		FuzzyQuery{Field: "f", Term: "gaol"},
	}
	snapshot := func() (map[string][]Posting, [][]Hit) {
		lists := map[string][]Posting{}
		for _, term := range merged.fields["f"].termNames() {
			lists[term] = merged.Postings("f", term)
		}
		var ranked [][]Hit
		for _, q := range queries {
			ranked = append(ranked, merged.Search(q, 100))
		}
		return lists, ranked
	}
	wantLists, wantRanked := snapshot()
	for _, src := range []*Index{a, b} {
		src.Add(new(Document).Add("f", "goal goal goal scored saved"))
		for id := 0; id < 40; id += 2 {
			src.Delete(id)
		}
	}
	if lists, ranked := snapshot(); !reflect.DeepEqual(lists, wantLists) || !reflect.DeepEqual(ranked, wantRanked) {
		t.Error("the merged index changed with its sources")
	}
	for term, te := range merged.fields["f"].terms {
		for _, src := range []*Index{a, b} {
			if se := src.fields["f"].terms[term]; se != nil && (&se.docs[0] == &te.docs[0] || &se.positions[0] == &te.positions[0]) {
				t.Errorf("term %q shares a column with a source", term)
			}
		}
	}
}

// TestAddPanicsAtInt32Edges seeds a field's tables next to each limit of the
// 32-bit posting columns: the last value that fits is stored exactly, the
// first that does not panics instead of wrapping.
func TestAddPanicsAtInt32Edges(t *testing.T) {
	seeded := func(docLen int32, sumLen int) *Index {
		ix := New(StandardAnalyzer{})
		fi := newFieldIndex()
		fi.docTable = docTable{docLen: []int32{docLen}, boost: 1, present: []uint64{1}, docCount: 1, sumLen: sumLen}
		ix.fields["f"] = fi
		return ix
	}
	panics := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", name, msg, want)
			}
		}()
		fn()
	}

	ix := seeded(math.MaxInt32-1, math.MaxInt32-1)
	ix.Add(new(Document).Add("f", "goal"))
	if te := ix.fields["f"].terms["goal"]; ix.fields["f"].lengthOf(0) != math.MaxInt32 || te.positions[0] != math.MaxInt32-1 {
		t.Errorf("the last token that fits: length %d, position %d", ix.fields["f"].lengthOf(0), te.positions[0])
	}
	panics("document tokens", "math.MaxInt32 tokens", func() {
		seeded(math.MaxInt32-1, math.MaxInt32-1).Add(new(Document).Add("f", "goal scored"))
	})
	seeded(0, math.MaxUint32-2).Add(new(Document).Add("f", "goal scored"))
	panics("segment tokens", "math.MaxUint32", func() {
		seeded(0, math.MaxUint32-1).Add(new(Document).Add("f", "goal scored"))
	})
	panics("documents", "math.MaxInt32 documents", func() {
		var tbl docTable
		tbl.add(math.MaxInt32, 1, 1)
	})
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
// after the memo fills, and that the memo stays inside its bounds. One
// Scratch serves every setting in turn, so a memo filled under one setting
// must not answer for the next.
func TestWriteAnalysisMatchesAnalyzer(t *testing.T) {
	long := strings.Repeat("x", memoMaxToken+1)
	var sc Scratch
	for _, a := range []Analyzer{
		StandardAnalyzer{}, StandardAnalyzer{NoStemming: true}, StandardAnalyzer{KeepStopwords: true}, StandardAnalyzer{},
	} {
		for i := 0; i < 2*memoMaxEntries; i++ {
			text := fmt.Sprintf("The Running runners of %s token%d scored Scoring", long, i)
			for pass := 0; pass < 2; pass++ {
				got := append([]string(nil), sc.analyze(a, text)...)
				if want := a.Analyze(text); !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
					t.Fatalf("%T %+v: write path %q, analyzer %q", a, a, got, want)
				}
			}
		}
		if len(sc.memo) > memoMaxEntries {
			t.Errorf("%T: memo holds %d tokens, cap %d", a, len(sc.memo), memoMaxEntries)
		}
		if _, ok := sc.memo[long]; ok {
			t.Errorf("%T: memo holds a %d-byte token, cap %d", a, len(long), memoMaxToken)
		}
	}
}

// hostileDocCount builds snapshots whose header claims 2^28 documents with
// almost no bytes behind the claim; withEntry adds one field whose only
// length entry names the last of them.
func hostileDocCount(withEntry bool) []byte {
	const numDocs = 1 << 28
	b := []byte(codecMagic)
	b = binary.LittleEndian.AppendUint32(b, CodecVersionCurrent)
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

// hostileTerm builds snapshots whose one term claims more than the stream
// holds: 2^28 postings of a claimed 2^28 documents or, positions set, one
// posting of 2^24 positions.
func hostileTerm(positions bool) []byte {
	u32 := binary.LittleEndian.AppendUint32
	b := u32([]byte(codecMagic), CodecVersionCurrent)
	b = u32(b, 1<<28)                  // documents
	b = append(u32(u32(b, 1), 1), 'f') // one field
	b = append(u32(u32(b, 1), 1), 't') // one term
	if !positions {
		return u32(b, 1<<28) // 2^28 postings
	}
	b = u32(b, 1)                      // one posting
	b = binary.AppendUvarint(b, 1)     // of document 0
	b = binary.AppendUvarint(b, 1<<24) // 2^24 positions
	b = append(b, 0)                   // one boost
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
}

// hostileChunk is a 44-byte stream of one document and no fields whose one
// stored chunk claims 4 GiB with 16 bytes behind it.
func hostileChunk() []byte {
	u32 := binary.LittleEndian.AppendUint32
	b := u32(u32(u32([]byte(codecMagic), CodecVersionCurrent), 1), 0)
	b = u32(b, storedChunkDocs)
	b = binary.LittleEndian.AppendUint64(b, 1<<32)
	return append(b, make([]byte, 16)...)
}

// hostileString is a 1 KiB stream whose one term claims a 64 MiB string.
func hostileString() []byte {
	u32 := binary.LittleEndian.AppendUint32
	b := u32([]byte(codecMagic), CodecVersionCurrent)
	b = u32(b, 1)                      // documents
	b = append(u32(u32(b, 1), 1), 'f') // one field
	b = u32(u32(b, 1), 1<<26)          // one term, of 64 MiB
	return append(b, make([]byte, 1024-len(b))...)
}

// chunkStream is a stream of docs documents and no fields whose one stored
// chunk is a small, valid flate stream of contents: a name table, document
// lengths and documents, unchecked.
func chunkStream(docs uint32, contents ...byte) []byte {
	u32 := binary.LittleEndian.AppendUint32
	b := u32(u32(u32(u32([]byte(codecMagic), CodecVersionCurrent), docs), 0), storedChunkDocs)
	var comp bytes.Buffer
	zw, _ := flate.NewWriter(&comp, flate.BestCompression)
	zw.Write(contents)
	zw.Close()
	return append(binary.LittleEndian.AppendUint64(b, uint64(comp.Len())), comp.Bytes()...)
}

// TestDecodeHostileDocCount pins that a document, posting, position, chunk
// or string length the stream does not back is refused before anything is
// sized by it, and so are stored chunk contents that claim 2^28 names, two
// documents where the chunk holds one, a name the table lacks, a field
// past its document, or document lengths whose sum wraps 2^64.
func TestDecodeHostileDocCount(t *testing.T) {
	// The one valid document: a table of one name, "f", a length of 4, and
	// one field of that name holding "x".
	if _, err := Decode(bytes.NewReader(chunkStream(1, 1, 1, 'f', 4, 1, 0, 1, 'x')), nil); err != nil {
		t.Fatalf("a valid chunk refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"documents":        hostileDocCount(false),
		"documents, entry": hostileDocCount(true),
		"postings":         hostileTerm(false),
		"positions":        hostileTerm(true),
		"stored chunk":     hostileChunk(),
		"string":           hostileString(),
		"chunk names":      chunkStream(1, 0x80, 0x80, 0x80, 0x80, 1, 1, 'f'),
		"chunk docs":       chunkStream(1, 1, 1, 'f', 4, 4, 1, 0, 1, 'x', 1, 0, 1, 'x'),
		"chunk name":       chunkStream(1, 1, 1, 'f', 7, 2, 0, 1, 'x', 2<<1, 1, 'y'),
		"chunk field":      chunkStream(1, 1, 1, 'f', 4, 1, 0, 9, 'x'),
		// Lengths 5 and 2^64-3 of two documents sum to the 2 bytes there are.
		"chunk lengths": chunkStream(2, 1, 0, 5, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 0),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(data), nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted a count backed by %d bytes", name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: allocated %d bytes decoding %d", name, grew, len(data))
		}
	}
}

// fieldsOnGoroutines is an AddDocs runner that makes every claim on a
// goroutine of its own, each with a fresh Scratch.
func fieldsOnGoroutines(n int, index func(int, *Scratch)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			index(i, new(Scratch))
		}()
	}
	wg.Wait()
}

// claimsOnTwoGoroutines is an AddDocs runner that makes the claims on two
// goroutines, each taking the next unclaimed one with a Scratch of its own,
// as the shard layer's fan-out does on two cores.
func claimsOnTwoGoroutines(n int, index func(int, *Scratch)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				index(i, &sc)
			}
		}()
	}
	wg.Wait()
}

// TestAddDocsMatchesAdd pins that AddDocs, its claims made in any order and
// side by side, builds the index one Add per document builds, byte for
// byte: over the oracle corpus (boosts 0.1, 5, -0.5 and the zero that
// means 1, fields only some documents carry) and over documents with a
// multi-valued field, a boosted value, stored-only fields, an empty field
// name, a value that analyzes to nothing and no fields at all. The
// documents go in as batches of every size, the first batches onto an
// index Add has written to, and the claims are made one goroutine each, in
// reverse, in a seeded shuffle and on two goroutines.
func TestAddDocsMatchesAdd(t *testing.T) {
	odd := []*Document{
		new(Document).Add("f", "goal kick").Add("g", "corner").Add("f", "goal line").AddBoosted("f", "kick off", 3),
		new(Document).AddBoosted("g", "corner corner", 2.5).Add("_meta", "not indexed").Add("", "nameless goal"),
		new(Document).Add("f", "the of").Add("_meta", "x"),
		new(Document),
		new(Document).Add("h", "a field first seen late").Add("f", "goal").Add("f", "goal goal"),
	}
	var odds []*Document
	for range 60 {
		odds = append(odds, odd...)
	}
	shuffle := rand.New(rand.NewSource(5))
	runners := []struct {
		name string
		run  func(int, func(int, *Scratch))
	}{
		{"goroutine per claim", fieldsOnGoroutines},
		{"reverse", func(n int, index func(int, *Scratch)) {
			var sc Scratch
			for i := n - 1; i >= 0; i-- {
				index(i, &sc)
			}
		}},
		{"shuffled", func(n int, index func(int, *Scratch)) {
			var sc Scratch
			for _, i := range shuffle.Perm(n) {
				index(i, &sc)
			}
		}},
		{"two goroutines", claimsOnTwoGoroutines},
	}
	for _, tc := range []struct {
		name string
		docs []*Document
	}{
		{"oracle corpus", kernelCorpus(rand.New(rand.NewSource(7)), 1500)},
		{"odd documents", odds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := New(StandardAnalyzer{})
			for _, d := range tc.docs {
				want.Add(d)
			}
			wantRaw, wantTOC, err := encode(want, "_meta")
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range runners {
				t.Run(rc.name, func(t *testing.T) {
					r := rand.New(rand.NewSource(1))
					got := New(StandardAnalyzer{})
					for i := 0; i < 3; i++ {
						got.Add(tc.docs[i])
					}
					for i := 3; i < len(tc.docs); {
						n := min(len(tc.docs)-i, 1+r.Intn(300))
						got.AddDocs(tc.docs[i:i+n], rc.run)
						i += n
					}
					raw, toc, err := encode(got, "_meta")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, wantRaw) || !bytes.Equal(toc, wantTOC) {
						t.Errorf("AddDocs encodes %d+%d bytes, one Add per document %d+%d, and they differ",
							len(raw), len(toc), len(wantRaw), len(wantTOC))
					}
				})
			}
		})
	}
}

// TestAddDocStatsInflatesEachChunkOnce sums a page's worth of documents
// spanning three stored chunks of a mapped index with one Scratch, in
// docID order as an upsert does: each chunk is inflated once, and the sum
// is the per-document DocStats sum. The Scratch then alternates between
// two mapped indexes of different documents: it must never answer one
// index from the other's chunk.
func TestAddDocStatsInflatesEachChunkOnce(t *testing.T) {
	docs, other := storedTestDocs(0, 600), storedTestDocs(600, 1200)
	mapped := func(docs []*Document) *Index {
		ix, err := reopen(indexOf(docs), true)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix, ox := mapped(docs), mapped(other)
	var sc Scratch
	sum, want := NewCorpusStats(), NewCorpusStats()
	for id := 100; id < 300; id++ {
		if !ix.AddDocStats(sum, id, &sc) {
			t.Fatalf("AddDocStats(%d) = false", id)
		}
		want.Merge(ix.DocStats(id))
	}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("summed %+v\nper document %+v", sum, want)
	}
	if sc.inflates != 3 {
		t.Errorf("summing documents 100–299 inflated %d chunks, want the 3 they sit in", sc.inflates)
	}
	for id := 0; id < 300; id += 7 {
		for _, x := range []*Index{ix, ox} {
			got := NewCorpusStats()
			x.AddDocStats(got, id, &sc)
			if !reflect.DeepEqual(got, x.DocStats(id)) {
				t.Fatalf("document %d read through a Scratch that last read the other index differs from DocStats", id)
			}
		}
	}
}
