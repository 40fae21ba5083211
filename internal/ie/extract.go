package ie

import (
	"strings"

	"repro/internal/crawler"
	"repro/internal/soccer"
)

// Event is one extracted (or Unknown) event. Exactly one Event is produced
// per narration: the paper keeps unrecognized narrations as UnknownEvent
// individuals so full-text recall never drops below the traditional
// baseline (Section 3.4).
type Event struct {
	Kind   soccer.EventKind
	Minute int
	// Subject and Object are resolved entities; zero-valued when the
	// template has no such slot or the event is Unknown.
	Subject Entity
	Object  Entity
	// SubjectTeam and ObjectTeam are team names ("" when unknown). For
	// player slots they come from the player's lineup side; for team slots
	// from the tag itself.
	SubjectTeam string
	ObjectTeam  string
	// NarrationIdx indexes the page's narration list.
	NarrationIdx int
	// Narration is the raw text, preserved for the index's full-text field.
	Narration string
}

// HasSubject reports whether a subject player was extracted.
func (e Event) HasSubject() bool { return e.Subject.Name != "" }

// HasObject reports whether an object player was extracted.
func (e Event) HasObject() bool { return e.Object.Name != "" }

// Extractor runs NER plus two-level lexical analysis over match pages.
type Extractor struct{}

// ExtractMatch processes every narration of a page. len(result) equals
// len(page.Narrations).
func (Extractor) ExtractMatch(page *crawler.MatchPage) []Event {
	tagger := NewTagger(page)
	teamName := [3]string{1: page.Home, 2: page.Away}
	events := make([]Event, 0, len(page.Narrations))
	for idx, n := range page.Narrations {
		ev := extractOne(tagger, &teamName, n.Text)
		ev.Minute = n.Minute
		ev.NarrationIdx = idx
		ev.Narration = n.Text
		events = append(events, ev)
	}
	return events
}

// extractOne extracts one narration's event; teamName is indexed by an
// entity's Team (1 home, 2 away).
func extractOne(tagger *Tagger, teamName *[3]string, text string) Event {
	// Level one: keyword screen.
	if !passesLevelOne(text) {
		return Event{Kind: soccer.KindUnknown}
	}
	// Level two: template matching over the tagged text, with the optional
	// running-score prefix stripped. An unbound slot binds "", which no
	// entity resolves.
	kind, bind, ok := templates.match(stripScorePrefix(tagger.Tag(text)))
	if !ok {
		// Level one fired but no template matched: the narration mentions
		// domain vocabulary without the structure we extract — keep it as
		// Unknown rather than guessing.
		return Event{Kind: soccer.KindUnknown}
	}
	ev := Event{Kind: kind}
	if e, ok := tagger.Resolve(bind[slotS]); ok {
		ev.Subject = e
		ev.SubjectTeam = teamName[e.Team]
	}
	if e, ok := tagger.Resolve(bind[slotO]); ok {
		ev.Object = e
		ev.ObjectTeam = teamName[e.Team]
	}
	if e, ok := tagger.Resolve(bind[slotT]); ok {
		ev.SubjectTeam = e.Name
	}
	if e, ok := tagger.Resolve(bind[slotOT]); ok {
		ev.ObjectTeam = e.Name
	}
	return ev
}

// stripScorePrefix removes a leading "(1 - 0) " running-score marker.
func stripScorePrefix(s string) string {
	if len(s) == 0 || s[0] != '(' {
		return s
	}
	j := strings.IndexByte(s, ')')
	if j < 0 {
		return s
	}
	inner := s[1:j]
	// Accept only "<digits> - <digits>".
	dash := strings.Index(inner, " - ")
	if dash < 0 || !allDigits(inner[:dash]) || !allDigits(inner[dash+3:]) {
		return s
	}
	rest := s[j+1:]
	return strings.TrimPrefix(rest, " ")
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
