package index

import (
	"testing"
	"testing/quick"
)

var defaultQPFields = []FieldBoost{{Field: "event", Boost: 4}, {Field: "narration", Boost: 1}}

func TestParseQueryTerms(t *testing.T) {
	ix := buildTestIndex()
	q, err := ParseQuery("goal messi", defaultQPFields)
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(q, 0)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// Top hit should be the Messi goal (matches both terms).
	if got := ix.Doc(hits[0].DocID).Get("narration"); got != "Messi scores a wonderful goal" {
		t.Errorf("top = %q", got)
	}
}

func TestParseQueryFieldPrefix(t *testing.T) {
	ix := buildTestIndex()
	q, err := ParseQuery("event:goal", defaultQPFields)
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(q, 0)
	if len(hits) != 2 {
		t.Fatalf("field query hits = %d", len(hits))
	}
	for _, h := range hits {
		if ix.Doc(h.DocID).Get("event") != "Goal" {
			t.Errorf("non-goal doc matched event:goal")
		}
	}
}

func TestParseQueryPhrase(t *testing.T) {
	ix := buildTestIndex()
	q, err := ParseQuery(`"free kick"`, defaultQPFields)
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(q, 0)
	if len(hits) != 1 {
		t.Fatalf("phrase hits = %d", len(hits))
	}
	if ix.Doc(hits[0].DocID).Get("event") != "Foul" {
		t.Error("phrase matched wrong doc")
	}
}

func TestParseQueryRequiredExcluded(t *testing.T) {
	ix := buildTestIndex()
	q, err := ParseQuery("+goal -misses", defaultQPFields)
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(q, 0)
	for _, h := range hits {
		n := ix.Doc(h.DocID).Get("narration")
		if n == "Ronaldo misses a goal from close range" {
			t.Errorf("excluded doc returned: %q", n)
		}
	}
	if len(hits) == 0 {
		t.Error("no hits for required term")
	}
}

func TestParseQueryFuzzy(t *testing.T) {
	ix := buildTestIndex()
	q, err := ParseQuery("mesi~", defaultQPFields) // misspelled Messi
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(q, 0)
	found := false
	for _, h := range hits {
		if ix.Doc(h.DocID).Get("narration") == "Messi scores a wonderful goal" {
			found = true
		}
	}
	if !found {
		t.Error("fuzzy query missed Messi")
	}
	// Exact matches outrank fuzzy ones.
	exact, _ := ParseQuery("messi", defaultQPFields)
	he := ix.Search(exact, 1)
	hf := ix.Search(q, 1)
	if len(he) > 0 && len(hf) > 0 && hf[0].Score >= he[0].Score {
		t.Errorf("fuzzy score %f >= exact %f", hf[0].Score, he[0].Score)
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, src := range []string{"", "   ", `"unterminated`, "+", "field:"} {
		if _, err := ParseQuery(src, defaultQPFields); err == nil {
			t.Errorf("ParseQuery accepted %q", src)
		}
	}
}

func TestWithinEditDistance1(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"messi", "messi", true},
		{"mesi", "messi", true},   // insertion
		{"messsi", "messi", true}, // deletion
		{"massi", "messi", true},  // substitution
		{"mess", "messi", true},   // trailing insertion
		{"mi", "messi", false},
		{"ronaldo", "messi", false},
		{"", "a", true},
		{"", "", true},
		{"ab", "ba", false}, // transposition is distance 2 here
	}
	for _, c := range cases {
		if got := WithinEditDistance1(c.a, c.b); got != c.want {
			t.Errorf("WithinEditDistance1(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// runeEditDistance1 is WithinEditDistance1 as it was before it stopped
// allocating: both strings converted to []rune and scanned in step. It is
// the reference the in-place UTF-8 walk is held to.
func runeEditDistance1(a, b string) bool {
	if a == b {
		return true
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(rb)-len(ra) > 1 {
		return false
	}
	i, j := 0, 0
	edited := false
	for i < len(ra) && j < len(rb) {
		if ra[i] == rb[j] {
			i++
			j++
			continue
		}
		if edited {
			return false
		}
		edited = true
		if len(ra) == len(rb) {
			i++ // substitution
		}
		j++ // insertion into a / deletion from b
	}
	remaining := (len(ra) - i) + (len(rb) - j)
	if edited {
		return remaining == 0
	}
	return remaining <= 1
}

// TestWithinEditDistance1MultiByte holds the in-place walk to the []rune
// reference where bytes and runes part ways: an edit is one rune whatever
// its width, and a one-byte difference inside a wide rune is one edit, not
// a reason to compare continuation bytes.
func TestWithinEditDistance1MultiByte(t *testing.T) {
	words := []string{
		"", "a", "é", "日", "𝄞", "ae", "aé", "éa", "日本", "日本語", "本語", "日語",
		"müller", "muller", "mülle", "müllër", "mueller", "mülller", "üller",
		"özil", "ozil", "özi", "öziil", "zil", "ößil",
		"𝄞clef", "clef", "𝄞cle", "𝄢clef", "𝄞𝄞clef", "çlef",
		"naïve", "naive", "naïv", "naïvé", "nave", "naïïve",
	}
	for _, a := range words {
		for _, b := range words {
			if got, want := WithinEditDistance1(a, b), runeEditDistance1(a, b); got != want {
				t.Errorf("WithinEditDistance1(%q, %q) = %v, the rune reference says %v", a, b, got, want)
			}
		}
	}
	// Random words of arbitrary runes, each against itself with one rune
	// inserted, substituted or dropped, and with two inserted.
	agree := func(word string, r rune, at uint8) bool {
		w := []rune(word)
		if len(w) > 8 {
			w = w[:8]
		}
		p := int(at) % (len(w) + 1)
		ins := append(append(append([]rune{}, w[:p]...), r), w[p:]...)
		variants := []string{string(w), string(ins), string(append([]rune{r}, ins...))}
		if p < len(w) {
			sub := append([]rune{}, w...)
			sub[p] = r
			variants = append(variants, string(sub), string(append(append([]rune{}, w[:p]...), w[p+1:]...)))
		}
		for _, a := range variants {
			for _, b := range variants {
				if WithinEditDistance1(a, b) != runeEditDistance1(a, b) {
					t.Logf("disagree on %q, %q", a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() { WithinEditDistance1("müller", "mueller") }); n != 0 {
		t.Errorf("WithinEditDistance1 allocates %v times per call", n)
	}
}

// Property: edit distance 1 is symmetric.
func TestEditDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		return WithinEditDistance1(a, b) == WithinEditDistance1(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMoreLikeThisBounds(t *testing.T) {
	ix := New(StandardAnalyzer{})
	ix.Add(new(Document).Add("f", "term"))
	if q := ix.LikeThisQuery(-1, []FieldBoost{{Field: "f", Boost: 1}}, 5, nil); q != nil {
		t.Error("negative id produced a query")
	}
	if q := ix.LikeThisQuery(99, []FieldBoost{{Field: "f", Boost: 1}}, 5, nil); q != nil {
		t.Error("out-of-range id produced a query")
	}
	// A doc whose only term is ubiquitous (df above the ceiling) yields nil.
	ubiq := New(StandardAnalyzer{})
	for i := 0; i < 30; i++ {
		ubiq.Add(new(Document).Add("f", "same"))
	}
	if q := ubiq.LikeThisQuery(0, []FieldBoost{{Field: "f", Boost: 1}}, 5, nil); q != nil {
		t.Error("ubiquitous-term doc produced a query")
	}
}

func TestIndexStats(t *testing.T) {
	ix := buildTestIndex()
	s := ix.Stats()
	if s.Docs != 5 || s.Fields != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Terms == 0 || s.Postings < s.Terms {
		t.Errorf("stats = %+v", s)
	}
}
