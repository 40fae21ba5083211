package ie

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/soccer"
)

func pageFor(t testing.TB, m *soccer.Match) *crawler.MatchPage {
	t.Helper()
	page, err := crawler.ParseMatchPage(crawler.RenderMatchPage(m))
	if err != nil {
		t.Fatalf("page round trip: %v", err)
	}
	return page
}

func TestTaggerBasics(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 1, Seed: 3, NarrationsPerMatch: 30})
	m := c.Matches[0]
	page := pageFor(t, m)
	tagger := NewTagger(page)

	home := m.Home.Players[9] // CF
	tagged := tagger.Tag(home.Short + " scores!")
	want := "<t1p10> scores!"
	if tagged != want {
		t.Errorf("Tag = %q, want %q", tagged, want)
	}
	e, ok := tagger.Resolve("<t1p10>")
	if !ok || e.Name != home.Short || e.Position != "CF" {
		t.Errorf("Resolve = %+v, %v", e, ok)
	}
}

func TestTaggerTeamNames(t *testing.T) {
	teams := soccer.BuildTeams()
	var real, united *soccer.Team
	for _, tm := range teams {
		switch tm.Name {
		case "Real Madrid":
			real = tm
		case "Manchester United":
			united = tm
		}
	}
	m := &soccer.Match{ID: "x", Home: real, Away: united, Date: "2009-05-01", Referee: "R"}
	page := pageFor(t, m)
	tagger := NewTagger(page)
	if got := tagger.Tag("Corner to Real Madrid. Ramos takes it."); got != "Corner to <t1>. <t1p3> takes it." {
		t.Errorf("multiword team tag = %q", got)
	}
	// Multiword player name.
	if got := tagger.Tag("Great save by Van der Sar (Manchester United), denying Raul."); got != "Great save by <t2p1> (<t2>), denying <t1p10>." {
		t.Errorf("multiword player tag = %q", got)
	}
}

func TestTaggerWordBoundaries(t *testing.T) {
	teams := soccer.BuildTeams()
	var chelsea, arsenal *soccer.Team
	for _, tm := range teams {
		switch tm.Name {
		case "Chelsea":
			chelsea = tm
		case "Arsenal":
			arsenal = tm
		}
	}
	m := &soccer.Match{ID: "x", Home: chelsea, Away: arsenal, Date: "2009-05-01", Referee: "R"}
	tagger := NewTagger(pageFor(t, m))
	// "Alex" must not be found inside "Alexander".
	if got := tagger.Tag("Alexander is not playing"); got != "Alexander is not playing" {
		t.Errorf("boundary violated: %q", got)
	}
	if got := tagger.Tag("Alex clears the danger."); got != "<t1p5> clears the danger." {
		t.Errorf("Alex not tagged: %q", got)
	}
}

// TestTaggerSkipsEmptyNames: ParseMatchPage accepts a lineup line without
// a short name, and a team header without team names. Such an entity is
// never tagged; scanning for its empty name would match at every word
// boundary without consuming text, and never finish.
func TestTaggerSkipsEmptyNames(t *testing.T) {
	page := &crawler.MatchPage{ID: "x", Home: "Alpha", Lineups: map[string][]crawler.PlayerLine{
		"Alpha": {{Name: "Nameless", Position: "GK"}, {Name: "Ian Rush", Short: "Ian", Position: "CF"}},
	}}
	tagger := NewTagger(page)
	if got, want := tagger.Tag("Ian (Alpha) scores, again!"), "<t1p2> (<t1>) scores, again!"; got != want {
		t.Errorf("Tag = %q, want %q", got, want)
	}
	if e, ok := tagger.Resolve("<t1p1>"); !ok || e.FullName != "Nameless" {
		t.Errorf("Resolve(<t1p1>) = %+v, %v", e, ok)
	}
}

func TestStripScorePrefix(t *testing.T) {
	cases := map[string]string{
		"(1 - 0) X scores!":    "X scores!",
		"(12 - 3) header":      "header",
		"(not a score) text":   "(not a score) text",
		"no prefix here":       "no prefix here",
		"(1-0) missing spaces": "(1-0) missing spaces",
		"":                     "",
		"( - ) empty numbers":  "( - ) empty numbers",
	}
	for in, want := range cases {
		if got := stripScorePrefix(in); got != want {
			t.Errorf("stripScorePrefix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtractGoalEvent(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 1, Seed: 3, NarrationsPerMatch: 30})
	m := c.Matches[0]
	page := pageFor(t, m)
	events := Extractor{}.ExtractMatch(page)
	if len(events) != len(page.Narrations) {
		t.Fatalf("%d events for %d narrations", len(events), len(page.Narrations))
	}
	// Find the truth goals and check each was extracted with the scorer.
	for _, tr := range m.Truth {
		if tr.Kind != soccer.KindGoal || tr.NarrationIdx < 0 {
			continue
		}
		ev := events[tr.NarrationIdx]
		if ev.Kind != soccer.KindGoal {
			t.Errorf("narration %d: kind %s, want Goal (%q)", tr.NarrationIdx, ev.Kind, ev.Narration)
			continue
		}
		if ev.Subject.Name != tr.Subject.Short {
			t.Errorf("goal scorer = %q, want %q", ev.Subject.Name, tr.Subject.Short)
		}
		if ev.Minute != tr.Minute {
			t.Errorf("goal minute = %d, want %d", ev.Minute, tr.Minute)
		}
	}
}

// TestExtractionRecall pins the paper's "100% success rate in UEFA
// narrations" claim: every simulator event with a narration must be
// extracted with exactly the right kind, subject and object, and every
// color narration must come back as UnknownEvent.
func TestExtractionRecall(t *testing.T) {
	c := soccer.Generate(soccer.Config{Matches: 10, Seed: 42, NarrationsPerMatch: 118})
	totalEvents, totalUnknown := 0, 0
	for _, m := range c.Matches {
		page := pageFor(t, m)
		events := Extractor{}.ExtractMatch(page)

		// Map narration index -> truth event.
		truthByNarr := map[int]*soccer.TruthEvent{}
		for i := range m.Truth {
			if m.Truth[i].NarrationIdx >= 0 {
				truthByNarr[m.Truth[i].NarrationIdx] = &m.Truth[i]
			}
		}
		for idx, ev := range events {
			tr, hasTruth := truthByNarr[idx]
			if !hasTruth {
				totalUnknown++
				if ev.Kind != soccer.KindUnknown {
					t.Errorf("match %s narration %d (%q): extracted %s from color text",
						m.ID, idx, ev.Narration, ev.Kind)
				}
				continue
			}
			totalEvents++
			if ev.Kind != tr.Kind {
				t.Errorf("match %s narration %d (%q): kind %s, want %s",
					m.ID, idx, ev.Narration, ev.Kind, tr.Kind)
				continue
			}
			if tr.Subject != nil && ev.Subject.Name != tr.Subject.Short {
				t.Errorf("match %s %s@%d: subject %q, want %q (%q)",
					m.ID, tr.Kind, tr.Minute, ev.Subject.Name, tr.Subject.Short, ev.Narration)
			}
			if tr.Object != nil && ev.Object.Name != tr.Object.Short {
				t.Errorf("match %s %s@%d: object %q, want %q (%q)",
					m.ID, tr.Kind, tr.Minute, ev.Object.Name, tr.Object.Short, ev.Narration)
			}
			if tr.SubjectTeam != nil && ev.SubjectTeam != tr.SubjectTeam.Name {
				t.Errorf("match %s %s@%d: subject team %q, want %q (%q)",
					m.ID, tr.Kind, tr.Minute, ev.SubjectTeam, tr.SubjectTeam.Name, ev.Narration)
			}
		}
	}
	if totalEvents < 500 {
		t.Errorf("only %d events checked; corpus generation too small?", totalEvents)
	}
	if totalUnknown < 100 {
		t.Errorf("only %d unknown narrations; color padding missing?", totalUnknown)
	}
	t.Logf("verified %d extracted events, %d unknown narrations", totalEvents, totalUnknown)
}

func TestLevelOneScreen(t *testing.T) {
	if passesLevelOne("The atmosphere at Camp Nou is electric tonight.") {
		t.Error("level one passed pure color text")
	}
	if !passesLevelOne("Eto'o (Barcelona) scores! The crowd erupts.") {
		t.Error("level one rejected a goal narration")
	}
}

func TestExtractorPositionMetadata(t *testing.T) {
	// Position codes must flow through extraction so ontology population
	// can assert position classes (needed for Q-10's defence players).
	c := soccer.Generate(soccer.Config{Matches: 1, Seed: 9, NarrationsPerMatch: 40})
	m := c.Matches[0]
	events := Extractor{}.ExtractMatch(pageFor(t, m))
	found := false
	for _, ev := range events {
		if ev.HasSubject() && ev.Subject.Position != "" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no extracted event carries subject position metadata")
	}
}

func TestEventHelpers(t *testing.T) {
	var e Event
	if e.HasSubject() || e.HasObject() {
		t.Error("zero event claims subject/object")
	}
	e.Subject = Entity{Name: "Messi"}
	if !e.HasSubject() {
		t.Error("HasSubject false after set")
	}
}

func TestTemplateCompileRoundTrip(t *testing.T) {
	ct := compileTemplate(Template{Kind: soccer.KindFoul, Pattern: "{S} fouls {O} badly"})
	bind, ok := ct.match("<t1p3> fouls <t2p4> badly")
	if !ok {
		t.Fatal("match failed")
	}
	if bind != (bindings{slotS: "<t1p3>", slotO: "<t2p4>"}) {
		t.Errorf("bindings = %q", bind)
	}
	team := compileTemplate(Template{Kind: soccer.KindCorner, Pattern: "Corner to {T}. {S} takes it"})
	if bind, ok := team.match("Corner to <t2>. <t2p7> takes it"); !ok || bind != (bindings{slotS: "<t2p7>", slotT: "<t2>"}) {
		t.Errorf("team template bindings = %q, %v", bind, ok)
	}
	if _, ok := ct.match("<t1p3> fouls <t2> badly"); ok {
		t.Error("team tag accepted in player slot")
	}
	if _, ok := ct.match("<t1p3> tackles <t2p4> badly"); ok {
		t.Error("wrong literal accepted")
	}
}
