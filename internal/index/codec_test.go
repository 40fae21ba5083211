package index

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	ix := buildTestIndex()
	// A ~300 KiB field text: strings far past any read buffer survive.
	ix.Add(new(Document).Add("narration", strings.Repeat("semantic index ", 20000)))
	back := roundTrip(t, ix)
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
		if err := sameHits(back.Search(q, 0), ix.Search(q, 0)); err != nil {
			t.Errorf("%s: %v", showQuery(q), err)
		}
	}
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
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		runCase(t, kernelCase{docs: kernelCorpus(r, 1+r.Intn(30)), rep: "decoded", queries: drawQueries(r, 10, (*queryGen).root)})
	}
}
