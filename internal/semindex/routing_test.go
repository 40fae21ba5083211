package semindex

import (
	"testing"

	"repro/internal/index"
)

// TestAdvancedSyntaxDetection pins the query-router decision: field syntax
// is only field syntax when the prefix names a real indexed field, and a
// tilde is only fuzzy syntax as a token suffix.
func TestAdvancedSyntaxDetection(t *testing.T) {
	si := NewBuilder().Build(FullInf, testPages(t, 2, 7))
	advanced := []string{
		`"yellow card"`, // quoted phrase
		"+messi goal",   // required term
		"goal -ronaldo", // excluded term
		"mesi~ goal",    // fuzzy suffix
		"event:goal",    // real field prefix
		"minute:15",     // context fields are indexed too
	}
	plain := []string{
		"messi barcelona goal",
		"2:1 goal",        // scoreline, "2" is not a field
		"19:30 kickoff",   // time token
		"score was 2:1",   // mid-query scoreline
		"half:time recap", // alphabetic prefix that is still not a field
	}
	for _, q := range advanced {
		if !hasAdvancedSyntax(q, si.Index.HasField) {
			t.Errorf("hasAdvancedSyntax(%q) = false, want true", q)
		}
	}
	for _, q := range plain {
		if hasAdvancedSyntax(q, si.Index.HasField) {
			t.Errorf("hasAdvancedSyntax(%q) = true, want false", q)
		}
	}
}

// TestScorelineQueryKeepsKeywordRanking is the ranking regression: a plain
// keyword query carrying a colon token must rank exactly like the same
// query with the punctuation tokenized away. On the seed code "2:1 goal"
// was routed to the field-prefix parser, the nonexistent field "2"
// swallowed the token, and the ranking silently changed.
func TestScorelineQueryKeepsKeywordRanking(t *testing.T) {
	si := NewBuilder().Build(FullInf, testPages(t, 2, 7))
	for _, tc := range [][2]string{
		{"2:1 goal", "2 1 goal"},
		{"19:30 kickoff goal", "19 30 kickoff goal"},
	} {
		got := si.Search(tc[0], 10)
		want := si.Search(tc[1], 10)
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits, %q: %d hits", tc[0], len(got), tc[1], len(want))
		}
		if len(want) == 0 {
			t.Fatalf("%q: fixture returned no hits; query too narrow", tc[1])
		}
		for i := range want {
			if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
				t.Errorf("%q rank %d: (doc %d, %v), want (doc %d, %v)",
					tc[0], i+1, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
			}
		}
	}
}

// TestFieldPrefixStillRoutesToParser: real field syntax must keep working
// — event:goal restricts matches to the event field.
func TestFieldPrefixStillRoutesToParser(t *testing.T) {
	si := NewBuilder().Build(FullInf, testPages(t, 2, 7))
	hits := si.Search("event:goal", 0)
	if len(hits) == 0 {
		t.Fatal("event:goal found nothing")
	}
	// Every hit must actually carry the term in its event field; a keyword
	// fallback would also surface narration-only matches.
	q := index.TermQuery{Field: FieldEvent, Term: "goal"}
	fielded := si.Index.Search(q, 0)
	if len(hits) != len(fielded) {
		t.Errorf("event:goal gave %d hits, field query %d", len(hits), len(fielded))
	}
}
