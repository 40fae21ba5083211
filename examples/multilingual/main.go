// Multilingual indexing (Section 7): the paper argues the semantic index
// makes the knowledge base flexible — supporting a second query language
// is "as easy as adding the translated value next to its original value
// for each field", where duplicating OWL individuals would be impractical.
//
// This example builds a bilingual English/Turkish index over the corpus
// events by appending Turkish translations to the event-type field, then
// answers the same information need in both languages.
//
//	go run ./examples/multilingual
package main

import (
	"fmt"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/semindex"
	"repro/internal/soccer"
)

// turkish maps English event-type words to Turkish, the paper's own second
// language (the system was built for both UEFA and SporX content).
var turkish = map[string]string{
	"Goal":         "Gol",
	"Foul":         "Faul",
	"Corner":       "Korner",
	"Offside":      "Ofsayt",
	"Punishment":   "Ceza",
	"YellowCard":   "Sari Kart",
	"RedCard":      "Kirmizi Kart",
	"Save":         "Kurtaris",
	"Substitution": "Oyuncu Degisikligi",
	"Pass":         "Pas",
}

func main() {
	corpus := soccer.Generate(soccer.Config{Matches: 4, Seed: 42, NarrationsPerMatch: 80, PaperCoverage: true})
	pages := crawler.PagesFromCorpus(corpus)

	// Build the monolingual semantic index first.
	si := semindex.NewBuilder().Build(semindex.FullInf, pages)

	// Re-index with the translated value appended next to the original —
	// the entire cost of adding a language under semantic indexing.
	bilingual := index.New(index.StandardAnalyzer{})
	for id := 0; id < si.Index.NumDocs(); id++ {
		src := si.Index.Doc(id)
		d := &index.Document{}
		for _, f := range src.Fields {
			d.Fields = append(d.Fields, f)
			if f.Name == semindex.FieldEvent {
				if tr := translate(f.Text); tr != "" {
					d.Add(semindex.FieldEvent, tr)
				}
			}
		}
		bilingual.Add(d)
	}
	both := &semindex.SemanticIndex{Level: semindex.FullInf, Index: bilingual}

	en := both.Search("goal", 0)
	tr := both.Search("gol", 0)
	fmt.Printf("bilingual index: %q -> %d hits, %q -> %d hits\n", "goal", len(en), "gol", len(tr))
	if len(en) > 0 && len(tr) > 0 && en[0].DocID == tr[0].DocID {
		fmt.Println("both languages rank the same top document:")
		fmt.Printf("  %s\n", en[0].Doc().Get(semindex.FieldNarration))
	}

	// The monolingual index cannot answer the Turkish query at all.
	mono := si.Search("gol", 0)
	fmt.Printf("monolingual index: %q -> %d hits\n", "gol", len(mono))
}

// translate appends Turkish equivalents for every known English word of a
// camel-split type value.
func translate(eventField string) string {
	out := ""
	for en, tr := range turkish {
		for _, w := range index.Tokenize(semindex.CamelSplit(en)) {
			_ = w
		}
		if containsWordSeq(eventField, semindex.CamelSplit(en)) {
			if out != "" {
				out += " "
			}
			out += tr
		}
	}
	return out
}

func containsWordSeq(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) &&
		(haystack == needle || indexOfWord(haystack, needle) >= 0)
}

func indexOfWord(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			before := i == 0 || s[i-1] == ' '
			after := i+len(sub) == len(s) || s[i+len(sub)] == ' '
			if before && after {
				return i
			}
		}
	}
	return -1
}
