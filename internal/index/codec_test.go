package index

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	ix := buildTestIndex()
	// A ~300 KiB field text: strings far past any read buffer survive.
	ix.Add(new(Document).Add("narration", strings.Repeat("semantic index ", 20000)))
	var buf bytes.Buffer
	if _, err := ix.EncodeWithTOC(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()), StandardAnalyzer{})
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if back.NumDocs() != ix.NumDocs() {
		t.Fatalf("docs %d != %d", back.NumDocs(), ix.NumDocs())
	}
	// Stored documents survive verbatim.
	for i := 0; i < ix.NumDocs(); i++ {
		if ix.Doc(i).Get("narration") != back.Doc(i).Get("narration") {
			t.Errorf("doc %d stored field differs", i)
		}
	}
	// Every query returns identical results on the reloaded index.
	queries := []Query{
		TermQuery{Field: "narration", Term: "goal"},
		TermQuery{Field: "event", Term: "goal", Boost: 4},
		PhraseQuery{Field: "narration", Terms: []string{"free", "kick"}},
		MultiFieldQuery("goal ronaldo", []FieldBoost{{"event", 4}, {"narration", 1}}),
	}
	for _, q := range queries {
		a := ix.Search(q, 0)
		b := back.Search(q, 0)
		if len(a) != len(b) {
			t.Fatalf("hit counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].DocID != b[i].DocID || !close(a[i].Score, b[i].Score) {
				t.Errorf("hit %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestCodecDeterministic(t *testing.T) {
	ix := buildTestIndex()
	var a, b bytes.Buffer
	if _, err := ix.EncodeWithTOC(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EncodeWithTOC(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteTo output not deterministic")
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE\x01\x00\x00\x00")},
		{"bad version", []byte("SIDX\xff\x00\x00\x00")},
		{"truncated", func() []byte {
			var buf bytes.Buffer
			buildTestIndex().EncodeWithTOC(&buf)
			return buf.Bytes()[:buf.Len()/2]
		}()},
		{"implausible doc count", []byte("SIDX\x01\x00\x00\x00\xff\xff\xff\xff")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(c.data), nil); err == nil {
				t.Error("ReadFrom accepted corrupt data")
			}
		})
	}
}

func TestCodecStoredOnlyFields(t *testing.T) {
	ix := New(StandardAnalyzer{})
	d := &Document{}
	d.Add("text", "searchable")
	d.Add("_meta", "hidden payload")
	ix.Add(d)
	var buf bytes.Buffer
	if _, err := ix.EncodeWithTOC(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, StandardAnalyzer{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Doc(0).Get("_meta") != "hidden payload" {
		t.Error("stored-only field lost")
	}
	if back.DocFreq("_meta", "hidden") != 0 {
		t.Error("stored-only field got indexed on reload")
	}
}

// Property: random indices survive the codec with identical search results.
func TestCodecRoundTripProperty(t *testing.T) {
	vocab := strings.Fields("goal foul save corner messi ronaldo card pass shot keeper")
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New(StandardAnalyzer{})
		for i := 0; i < int(n%30)+1; i++ {
			d := &Document{}
			var words []string
			for j := 0; j < r.Intn(10)+1; j++ {
				words = append(words, vocab[r.Intn(len(vocab))])
			}
			if r.Intn(2) == 0 {
				d.AddBoosted("f", strings.Join(words, " "), float64(r.Intn(4)+1))
			} else {
				d.Add("f", strings.Join(words, " "))
			}
			ix.Add(d)
		}
		var buf bytes.Buffer
		if _, err := ix.EncodeWithTOC(&buf); err != nil {
			return false
		}
		back, err := Decode(&buf, StandardAnalyzer{})
		if err != nil {
			return false
		}
		probe := vocab[r.Intn(len(vocab))]
		a := ix.Search(TermQuery{Field: "f", Term: probe}, 0)
		b := back.Search(TermQuery{Field: "f", Term: probe}, 0)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].DocID != b[i].DocID || !close(a[i].Score, b[i].Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
