package semindex

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)

	var buf bytes.Buffer
	if _, err := si.SaveWithTOC(&buf); err != nil {
		t.Fatalf("SaveWithTOC: %v", err)
	}
	back, err := Load(buf.Bytes(), nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Level != FullInf {
		t.Errorf("level = %s", back.Level)
	}
	if back.Index.NumDocs() != si.Index.NumDocs() {
		t.Fatalf("docs %d != %d", back.Index.NumDocs(), si.Index.NumDocs())
	}
	for _, q := range []string{"goal", "punishment", "henry negative moves"} {
		a := si.Search(q, 10)
		b := back.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i].DocID != b[i].DocID {
				t.Errorf("query %q rank %d: doc %d vs %d", q, i, a[i].DocID, b[i].DocID)
			}
		}
	}
}

// TestLoadErrors: the heap and mapped opens reject the same malformed
// payloads.
func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "NOTANINDEX\n",
		"bad level":     "SEMIDX BOGUS\n",
		"missing body":  "SEMIDX FULL_INF\n",
		"header fields": "SEMIDX\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load([]byte(src), nil); err == nil {
				t.Error("Load accepted invalid input")
			}
			if _, err := OpenMapped([]byte(src), nil, nil); err == nil {
				t.Error("OpenMapped accepted invalid input")
			}
		})
	}
}

func TestEventTranslations(t *testing.T) {
	pages := testPages(t, 2, 42)
	b := NewBuilder()
	b.EventTranslations = map[string]string{"Goal": "Gol", "Foul": "Faul"}
	si := b.Build(FullInf, pages)

	turkish := si.Search("gol", 0)
	if len(turkish) == 0 {
		t.Fatal("Turkish query found nothing on the bilingual index")
	}
	for _, h := range turkish {
		kind := h.Meta(MetaKind)
		if !strings.Contains(kind, "Goal") {
			t.Errorf("'gol' matched non-goal kind %q", kind)
		}
	}
	english := si.Search("goal", 0)
	if len(english) < len(turkish) {
		t.Errorf("English query weaker than Turkish: %d vs %d", len(english), len(turkish))
	}
	// The monolingual baseline cannot answer the Turkish query.
	mono := NewBuilder().Build(FullInf, pages)
	if got := mono.Search("gol", 0); len(got) != 0 {
		t.Errorf("monolingual index answered Turkish query: %d hits", len(got))
	}
}
