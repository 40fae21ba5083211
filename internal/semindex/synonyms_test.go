package semindex

import (
	"strings"
	"testing"
)

func TestSynonymSearchFolkVocabulary(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)

	// "keeper" appears nowhere in the corpus; the synonym layer maps it to
	// "goalkeeper", which the inferred subjectPlayerProp field carries.
	plain := si.Search("keeper save", 0)
	saves := 0
	for _, h := range plain {
		if strings.Contains(h.Meta(MetaKind), "Save") {
			saves++
		}
	}
	syn := si.SearchWithSynonyms("keeper save", 0, SoccerSynonyms)
	if len(syn) == 0 {
		t.Fatal("synonym search found nothing")
	}
	top := syn[0]
	if !strings.Contains(top.Meta(MetaKind), "Save") {
		t.Errorf("top synonym hit kind = %q", top.Meta(MetaKind))
	}
	// The synonym ranking must place the keeper's saves above whatever the
	// literal query could reach through "save" alone; verify the top hit's
	// subject is actually a goalkeeper-typed player.
	if !strings.Contains(top.Doc().Get(FieldSubjProp), "Goalkeeper") {
		t.Errorf("top hit subject props = %q", top.Doc().Get(FieldSubjProp))
	}
}

func TestSynonymSearchBooking(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)
	hits := si.SearchWithSynonyms("booking", 5, SoccerSynonyms)
	if len(hits) == 0 {
		t.Fatal("no hits for booking")
	}
	if !strings.Contains(hits[0].Meta(MetaKind), "Yellow") {
		t.Errorf("top booking hit = %q", hits[0].Meta(MetaKind))
	}
}

func TestSynonymSearchWithoutTableEqualsPlain(t *testing.T) {
	pages := testPages(t, 1, 42)
	si := NewBuilder().Build(FullInf, pages)
	a := si.Search("goal", 10)
	b := si.SearchWithSynonyms("goal", 10, nil)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d hits", len(a), len(b))
	}
	for i := range a {
		if a[i].DocID != b[i].DocID {
			t.Errorf("rank %d: %d vs %d", i, a[i].DocID, b[i].DocID)
		}
	}
}

func TestSynonymWeightDiscount(t *testing.T) {
	pages := testPages(t, 1, 42)
	si := NewBuilder().Build(FullInf, pages)
	// "goalie" appears nowhere in the corpus text, so its score comes
	// purely from the discounted synonym clause; "goalkeeper" is literal.
	literal := si.SearchWithSynonyms("goalkeeper", 1, SoccerSynonyms)
	viaSyn := si.SearchWithSynonyms("goalie", 1, SoccerSynonyms)
	if len(literal) == 0 || len(viaSyn) == 0 {
		t.Skip("no goalkeeper docs")
	}
	if viaSyn[0].Score >= literal[0].Score {
		t.Errorf("synonym match %f not discounted vs literal %f", viaSyn[0].Score, literal[0].Score)
	}
}

func TestSuggestCorrectsMisspelledName(t *testing.T) {
	pages := testPages(t, 2, 42)
	si := NewBuilder().Build(FullInf, pages)
	got := si.Suggest("mesi goal")
	if !strings.Contains(got, "goal") || got == "" {
		t.Fatalf("Suggest = %q", got)
	}
	// The suggested first token must now match the index ("messi" stems to
	// the vocabulary term).
	if !strings.HasPrefix(got, "messi") {
		t.Errorf("Suggest = %q, want messi correction", got)
	}
}

// TestSuggestLeavesOneRuneTokens: every one-rune term is one substitution
// away from a one-rune token, so correcting one would always propose the
// most frequent one-rune term (a digit). Such tokens stay as typed, and
// the rest of the query is still corrected.
func TestSuggestLeavesOneRuneTokens(t *testing.T) {
	si := NewBuilder().Build(FullInf, testPages(t, 2, 42))
	for q, want := range map[string]string{
		"x~ y~":  "",
		"é~":     "",
		"q":      "",
		"x mesi": "x messi",
	} {
		if got := si.Suggest(q); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", q, got, want)
		}
	}
}

func TestSuggestNoChangeNeeded(t *testing.T) {
	pages := testPages(t, 1, 42)
	si := NewBuilder().Build(FullInf, pages)
	if got := si.Suggest("messi goal"); got != "" {
		t.Errorf("Suggest on valid query = %q", got)
	}
	// Hopeless garbage with no near neighbour yields no suggestion.
	if got := si.Suggest("qzxv"); got != "" {
		t.Errorf("Suggest on garbage = %q", got)
	}
	// Stopwords alone need no correction.
	if got := si.Suggest("the of"); got != "" {
		t.Errorf("Suggest on stopwords = %q", got)
	}
}
