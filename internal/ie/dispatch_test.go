package ie

import (
	"strings"
	"testing"

	"repro/internal/soccer"
)

// linearMatch is level two as it was written before the dispatcher: try
// every template of the table in turn; the first that matches wins. The
// dispatcher must agree with it on every input.
func linearMatch(table []compiledTemplate, tagged string) (soccer.EventKind, bindings, bool) {
	for _, ct := range table {
		if bind, ok := ct.match(tagged); ok {
			return ct.kind, bind, true
		}
	}
	return "", bindings{}, false
}

// shadowed returns the template table with every template next to its
// prefixes of three words or more ("{S} ({T}) saves the penalty from {O}"
// next to "{S} ({T}) saves the penalty", "{S} ({T}) saves the" and "{S}
// ({T}) saves"), each of a kind of its own: the prefixes after the
// template when prefixesFirst is false, before it, longest last, when it
// is true. A text the template matches is then matched by its prefixes
// too, so only table order picks the winner — as it picks the penalty
// save over the plain "{S} ({T}) saves" that a dispatcher trying it first
// would return. Shorter prefixes, such as "{S} ({T})", would shadow every
// template after them and leave nothing for order to decide.
func shadowed(prefixesFirst bool) []compiledTemplate {
	var out []compiledTemplate
	for _, tpl := range Templates {
		var cuts []compiledTemplate
		for i := 1; i < len(tpl.Pattern); i++ {
			cut := tpl.Pattern[:i]
			if tpl.Pattern[i] == ' ' && strings.Count(cut, "{") == strings.Count(cut, "}") && len(strings.Fields(cut)) >= 3 {
				cuts = append(cuts, compileTemplate(Template{Kind: "cut " + tpl.Kind, Pattern: cut}))
			}
		}
		if prefixesFirst {
			out = append(append(out, cuts...), compileTemplate(tpl))
			continue
		}
		out = append(out, compileTemplate(tpl))
		for i := len(cuts) - 1; i >= 0; i-- {
			out = append(out, cuts[i])
		}
	}
	return out
}

// FuzzTemplateDispatch holds the dispatcher to the linear scan over the
// production table and over both shadowed tables. The seeds are every
// narration of TestExtractionRecall's corpus, tagged and stripped of the
// running score as level two reads it, and prefix edge cases.
func FuzzTemplateDispatch(f *testing.F) {
	c := soccer.Generate(soccer.Config{Matches: 10, Seed: 42, NarrationsPerMatch: 118})
	for _, m := range c.Matches {
		page := pageFor(f, m)
		tagger := NewTagger(page)
		for _, n := range page.Narrations {
			f.Add(stripScorePrefix(tagger.Tag(n.Text)))
		}
	}
	for _, s := range []string{
		"", "<", "<t1p1>", "<t1p1> (", "<t1p1> (<t1>", "<t1p1> (<t1>)", "<t1p1> (<t1>) ",
		"<t1p1> (<t1>) s", "<t1> (<t1p1>) scores!", "<t1p1> (<t1p2>) scores!",
		"<t1p1> (<t1>) saves the penalty from <t2p3>", "<t1p1> (<t1>) saves from <t2p3>",
		"<t1p1> (<t1>)  scores!", "<> (<t>) scores!", "<t2p4> (<t2>) stays down after a challenge from <t1p9>",
		"<t1p1> fouls <t2p2>", "Corner to <t1>. <t1p7> takes it",
	} {
		f.Add(s)
	}
	tables := []struct {
		name  string
		table []compiledTemplate
		d     *dispatcher
	}{
		{"production", compiledTemplates, templates},
		{"shadowed, prefixes after", shadowed(false), nil},
		{"shadowed, prefixes first", shadowed(true), nil},
	}
	for i := range tables {
		if tables[i].d == nil {
			tables[i].d = newDispatcher(tables[i].table)
		}
	}
	f.Fuzz(func(t *testing.T, tagged string) {
		for _, tb := range tables {
			kind, bind, ok := tb.d.match(tagged)
			wantKind, wantBind, wantOK := linearMatch(tb.table, tagged)
			if kind != wantKind || bind != wantBind || ok != wantOK {
				t.Errorf("%s table, %q: dispatch = %q %q %v, linear scan %q %q %v",
					tb.name, tagged, kind, bind, ok, wantKind, wantBind, wantOK)
			}
		}
	})
}

// TestShadowedTablesNeedOrder keeps the fuzz target's shadowed tables
// meaningful: on each, some seed narration is matched by more than one
// template, so a dispatcher that tried them out of table order would
// return another kind than the linear scan.
func TestShadowedTablesNeedOrder(t *testing.T) {
	text := "<t1p1> (<t1>) saves the penalty from <t2p3>"
	for _, prefixesFirst := range []bool{false, true} {
		table := shadowed(prefixesFirst)
		matched := 0
		for _, ct := range table {
			if _, ok := ct.match(text); ok {
				matched++
			}
		}
		want := soccer.KindPenaltySave
		if prefixesFirst {
			want = "cut " + soccer.KindPenaltySave
		}
		if kind, _, _ := newDispatcher(table).match(text); matched < 2 || kind != want {
			t.Errorf("prefixes first %v: %d templates match %q, dispatch picks %q, want %q", prefixesFirst, matched, text, kind, want)
		}
	}
}
