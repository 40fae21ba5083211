package ie

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/corpus"
)

// levelOneReference is the first analysis level as it was written before
// the trigger matcher: lower-case the narration, then look for each
// trigger in turn. passesLevelOne must agree with it on every input.
func levelOneReference(text string) bool {
	lower := strings.ToLower(text)
	for _, k := range triggerKeywords {
		if strings.Contains(lower, k) {
			return true
		}
	}
	return false
}

// FuzzPassesLevelOne holds the one-pass matcher to the reference. The seeds
// are every narration of the 30 golden benchmark pages, and case-mapping
// edge cases: runes outside ASCII that lower-case into it (U+212A KELVIN
// SIGN to "k", U+0130 to "i", which also changes the byte length), case
// folds that do not lower-case into ASCII, invalid UTF-8, and triggers cut
// short.
func FuzzPassesLevelOne(f *testing.F) {
	gen := corpus.New(corpus.Spec{TargetDocs: 1 << 30, Seed: 20100301})
	for i := 0; i < 30; i++ {
		page, err := gen.NextPage()
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range page.Narrations {
			f.Add(n.Text)
		}
	}
	for _, s := range []string{
		"", "\u212Aick off", "The referee blows and Real \u212AICK OFF",
		"f\u0130nal whistle", "\u0130\u0130\u0130 sent off", "BOOKED", "Half-Time",
		"\u017Fcores", "\uFB01nal whistle", "kick\u00A0off", "half\u2010time",
		"sco\xffres", "\xff\xfe scores", "\uFFFDcorner", "sav", "save", "pas to",
		"goal kic", "pass  to",
	} {
		f.Add(s)
	}
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		lower := unicode.ToLower(r)
		if lower >= utf8.RuneSelf {
			continue
		}
		for _, k := range triggerKeywords {
			if strings.ContainsRune(k, lower) {
				f.Add(strings.Replace(k, string(lower), string(r), 1))
				f.Add(strings.ReplaceAll(strings.ToUpper(k), string(unicode.ToUpper(lower)), string(r)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := passesLevelOne(text), levelOneReference(text); got != want {
			t.Errorf("passesLevelOne(%q) = %v, reference %v", text, got, want)
		}
	})
}

// TestTemplatesContainATrigger makes explicit that level one only filters
// ahead of the template stage and never changes an extraction. A template
// matches the tagged narration, where its literal parts, which hold no
// '<' or '>', fall outside every tag and so are the raw narration's own
// text. Each template has a literal part containing a trigger, so any
// narration a template could match passes level one.
func TestTemplatesContainATrigger(t *testing.T) {
	for _, tpl := range Templates {
		found := false
		for _, part := range compileTemplate(tpl).parts {
			if strings.ContainsAny(part, "<>") {
				t.Errorf("template %q: literal %q could overlap a tag", tpl.Pattern, part)
			}
			found = found || levelOneReference(part)
		}
		if !found {
			t.Errorf("template %q: no literal part contains a trigger", tpl.Pattern)
		}
	}
}
