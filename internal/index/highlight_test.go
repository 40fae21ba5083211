package index

import (
	"strings"
	"testing"
)

func TestSnippetHighlightsStemmedMatches(t *testing.T) {
	h := Highlighter{}
	got := h.Snippet("Eto'o scores! Barcelona take the lead with two quick goals.", "goal scoring")
	if !strings.Contains(got, "«scores»") {
		t.Errorf("missing stemmed highlight for scores: %q", got)
	}
	if !strings.Contains(got, "«goals»") {
		t.Errorf("missing stemmed highlight for goals: %q", got)
	}
	if strings.Contains(got, "«Barcelona»") {
		t.Errorf("highlighted non-query token: %q", got)
	}
}

func TestSnippetWindowSelection(t *testing.T) {
	long := strings.Repeat("filler words here and there again ", 20) +
		"suddenly Messi scores a wonderful goal for Barcelona " +
		strings.Repeat("more filler text trailing on ", 20)
	h := Highlighter{MaxTokens: 12}
	got := h.Snippet(long, "messi goal")
	if !strings.Contains(got, "«Messi»") || !strings.Contains(got, "«goal»") {
		t.Errorf("window missed the match region: %q", got)
	}
	if !strings.HasPrefix(got, "… ") || !strings.HasSuffix(got, " …") {
		t.Errorf("window ellipses missing: %q", got)
	}
	if len(got) > 200 {
		t.Errorf("snippet too long (%d bytes)", len(got))
	}
}

func TestSnippetNoMatchReturnsHead(t *testing.T) {
	h := Highlighter{MaxTokens: 5}
	got := h.Snippet("one two three four five six seven eight", "nonexistent")
	if strings.Contains(got, "«") {
		t.Errorf("highlighted nothing-match: %q", got)
	}
	if !strings.HasPrefix(got, "one two three") {
		t.Errorf("head window expected: %q", got)
	}
}

func TestSnippetCustomMarkers(t *testing.T) {
	h := Highlighter{Pre: "<b>", Post: "</b>"}
	got := h.Snippet("a goal was scored", "goal")
	if !strings.Contains(got, "<b>goal</b>") {
		t.Errorf("custom markers not applied: %q", got)
	}
}

func TestSnippetEmptyAndPunctuation(t *testing.T) {
	h := Highlighter{}
	if got := h.Snippet("", "goal"); got != "" {
		t.Errorf("empty text snippet = %q", got)
	}
	if got := h.Snippet("!!!", "goal"); got != "!!!" {
		t.Errorf("punctuation-only snippet = %q", got)
	}
	// Apostrophe names keep their punctuation when highlighted.
	got := h.Snippet("Eto'o scores!", "eto'o")
	if !strings.Contains(got, "«Eto'o»") {
		t.Errorf("apostrophe name: %q", got)
	}
}

// TestSnippetText pins whole snippets: a window that starts at the first
// token keeps the text before it, and tokens split where Tokenize splits
// them, so a dash, a no-break space or a guillemet next to a word is
// punctuation, not part of a highlighted token.
func TestSnippetText(t *testing.T) {
	for _, tc := range []struct {
		h                 Highlighter
		text, query, want string
	}{
		{Highlighter{}, "(1 - 0) Messi scores", "messi", "(1 - 0) «Messi» scores"},
		{Highlighter{}, `"Messi scores!" said the commentator`, "messi", `"«Messi» scores!" said the commentator`},
		{Highlighter{MaxTokens: 2}, "(1 - 0) Messi scores", "scores", "… Messi «scores»"},
		{Highlighter{}, "Free kick–Messi scores", "messi", "Free kick–«Messi» scores"},
		{Highlighter{}, "Messi\u00a0Villa scores", "villa", "Messi\u00a0«Villa» scores"},
		{Highlighter{Pre: "<b>", Post: "</b>"}, "«Messi» scores", "messi", "«<b>Messi</b>» scores"},
	} {
		if got := tc.h.Snippet(tc.text, tc.query); got != tc.want {
			t.Errorf("Snippet(%q, %q) = %q, want %q", tc.text, tc.query, got, tc.want)
		}
	}
}

func TestTokenizeOffsetsAgreesWithTokenize(t *testing.T) {
	texts := []string{
		"Eto'o scores! Barcelona take the lead",
		"  spaced   out  ",
		"(1 - 0) running score prefix",
		"'''",
		`"Messi scores!" said the commentator`,
		"Free kick–Messi scores",
		"Messi\u00a0Villa scores",
		"«Messi» scores",
		"'Eto'o' '' l'Eto'o",
	}
	for _, text := range texts {
		plain := Tokenize(text)
		offs := tokenizeOffsets(text)
		if len(plain) != len(offs) {
			t.Errorf("token counts differ for %q: %d vs %d", text, len(plain), len(offs))
			continue
		}
		for i := range plain {
			if plain[i] != offs[i].text {
				t.Errorf("token %d differs: %q vs %q", i, plain[i], offs[i].text)
			}
			if text[offs[i].start:offs[i].end] != offs[i].text {
				t.Errorf("offsets wrong for %q", offs[i].text)
			}
		}
	}
}
