// Package populate implements ontology population (Section 3.4): it turns
// the crawled basic information and the extracted events of one match into
// an OWL model of individuals, one independent model per game — the
// paper's unit of inference that keeps reasoning cost flat in corpus size.
//
// Role filling follows the paper's generic-property design: every event
// class has subjectPlayer/objectPlayer sub-properties (scorerPlayer,
// fouledPlayer, ...); the populator asserts the most specific property the
// ontology defines for the event kind and falls back to the generic one,
// so an extractor that only finds the subject still produces a usable
// individual.
package populate

import (
	"cmp"
	"strings"
	"sync"

	"repro/internal/crawler"
	"repro/internal/ie"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/soccer"
)

// EventRecord links an event individual to its source data for the
// indexing stage.
type EventRecord struct {
	// Individual is the event individual's ID in the model's graph.
	Individual rdf.ID
	// Kind is the asserted event class.
	Kind soccer.EventKind
	// Minute is the event minute.
	Minute int
	// Narration is the source text ("" for basic-info-only events).
	Narration string
	// NarrationIdx indexes the page's narration list, -1 when the record
	// came from basic information with no matching narration.
	NarrationIdx int
}

// PopulatedMatch is the result of populating one match.
type PopulatedMatch struct {
	// Model is the per-match ABox (pre-inference).
	Model *owl.Model
	// MatchIRI is the match individual.
	MatchIRI rdf.Term
	// Page is the source crawl page.
	Page *crawler.MatchPage
	// Events lists every event individual, basic-info and extracted alike.
	Events []EventRecord
}

// rolePair names the specific subject/object sub-properties for a kind.
type rolePair struct {
	subj string // sub-property of subjectPlayer ("" = use generic)
	obj  string // sub-property of objectPlayer ("" = use generic)
}

var roleProperties = map[soccer.EventKind]rolePair{
	soccer.KindGoal:          {subj: "scorerPlayer"},
	soccer.KindHeaderGoal:    {subj: "scorerPlayer"},
	soccer.KindPenaltyGoal:   {subj: "scorerPlayer"},
	soccer.KindFreeKickGoal:  {subj: "scorerPlayer"},
	soccer.KindOwnGoal:       {subj: "scorerPlayer"},
	soccer.KindPass:          {subj: "passingPlayer", obj: "passReceiver"},
	soccer.KindLongPass:      {subj: "passingPlayer", obj: "passReceiver"},
	soccer.KindShortPass:     {subj: "passingPlayer", obj: "passReceiver"},
	soccer.KindCrossPass:     {subj: "passingPlayer", obj: "passReceiver"},
	soccer.KindThroughPass:   {subj: "passingPlayer", obj: "passReceiver"},
	soccer.KindShoot:         {subj: "shootingPlayer"},
	soccer.KindShotOnTarget:  {subj: "shootingPlayer"},
	soccer.KindShotOffTarget: {subj: "shootingPlayer"},
	soccer.KindHeaderShot:    {subj: "shootingPlayer"},
	soccer.KindSave:          {subj: "savingPlayer", obj: "savedFromPlayer"},
	soccer.KindPenaltySave:   {subj: "savingPlayer", obj: "savedFromPlayer"},
	soccer.KindTackle:        {subj: "tacklingPlayer", obj: "tackledPlayer"},
	soccer.KindInterception:  {subj: "interceptingPlayer"},
	soccer.KindClearance:     {subj: "clearingPlayer"},
	soccer.KindDribble:       {subj: "dribblingPlayer", obj: "dribbledPastPlayer"},
	soccer.KindFoul:          {subj: "foulingPlayer", obj: "fouledPlayer"},
	soccer.KindHandBall:      {subj: "foulingPlayer"},
	soccer.KindYellowCard:    {subj: "punishedPlayer"},
	soccer.KindSecondYellow:  {subj: "punishedPlayer"},
	soccer.KindRedCard:       {subj: "punishedPlayer"},
	soccer.KindOffside:       {subj: "offsidePlayer"},
	soccer.KindMissedGoal:    {subj: "missingPlayer"},
	soccer.KindMissedPenalty: {subj: "missingPlayer"},
	soccer.KindInjury:        {obj: "injuredPlayer"},
	soccer.KindSubstitution:  {subj: "substitutedPlayer", obj: "substitutePlayer"},
	soccer.KindCorner:        {subj: "cornerTaker"},
	soccer.KindFreeKick:      {subj: "freeKickTaker"},
	soccer.KindPenaltyKick:   {subj: "penaltyTaker"},
	soccer.KindThrowIn:       {subj: "throwInTaker"},
}

// Populator builds per-match models over a shared ontology.
type Populator struct {
	Ontology *owl.Ontology
}

// Populate builds the model for one match from its crawl page and the
// extracted events. Extracted goals and substitutions that duplicate
// basic-information entries enrich the existing individual (adding the
// specific subtype and narration) instead of creating a second one.
//
// A bench player, goal or substitution whose team is neither the home nor
// the away team gets no team triple, as an unknown scorer gets no
// scorerPlayer triple.
func (p *Populator) Populate(page *crawler.MatchPage, events []ie.Event) *PopulatedMatch {
	return p.PopulateOn(rdf.NewGraph(), page, events)
}

// PopulateOn is Populate into g, which must be empty: a caller that
// populates page after page passes one graph, Reset between pages, and
// reuses its allocations.
func (p *Populator) PopulateOn(g *rdf.Graph, page *crawler.MatchPage, events []ie.Event) *PopulatedMatch {
	m := owl.NewModelOn(p.Ontology, g)
	m.IDPrefix = iriSafe(page.ID) + "_"
	// Inference saturates this same graph. A saturated match model measures
	// about 2.8 IRIs, 1.7 other terms and 13 triples per narration on the
	// benchmark corpus, so the graph is sized for that once.
	n := len(page.Narrations)
	m.Graph.Grow(3*n, 2*n, 14*n)
	w := writers.Get().(*writer)
	defer writers.Put(w)
	w.reset(m)
	pm := &PopulatedMatch{Model: m, Page: page, Events: make([]EventRecord, 0, len(page.Goals)+len(page.Subs)+len(events))}

	w.match = w.named(iriSafe(page.ID), "Match")
	match := w.match
	pm.MatchIRI = w.g.Term(match)
	w.setString(match, w.iri("hasDate"), page.Date)
	w.setInt(match, w.iri("homeScore"), page.HomeScore)
	w.setInt(match, w.iri("awayScore"), page.AwayScore)

	stadium := w.named(iriSafe(page.Stadium), "Stadium")
	w.set(match, w.iri("playedAtStadium"), stadium)
	referee := w.named(iriSafe(page.Referee), "Referee")
	w.setString(referee, w.iri("hasName"), page.Referee)
	w.set(match, w.iri("hasReferee"), referee)

	w.teamNames = [2]string{page.Home, page.Away}
	for i, teamName := range w.teamNames {
		team := w.named(iriSafe(teamName), "Team")
		w.teams[i] = team
		w.setString(team, w.iri("hasName"), teamName)
		if i == 0 {
			w.set(match, w.iri("homeTeam"), team)
		} else {
			w.set(match, w.iri("awayTeam"), team)
		}
		if coach := page.Coaches[teamName]; coach != "" {
			c := w.named(iriSafe(coach), "Coach")
			w.setString(c, w.iri("hasName"), coach)
			w.set(team, w.iri("hasCoach"), c)
		}
		for _, pl := range page.Lineups[teamName] {
			player := w.named(iriSafe(pl.Name), soccer.PositionClass(pl.Position))
			w.players[pl.Short] = player
			w.setString(player, w.iri("hasName"), pl.Name)
			w.setInt(player, w.iri("shirtNumber"), pl.Shirt)
			w.set(player, w.iri("playsFor"), team)
			w.set(team, w.iri("hasPlayer"), player)
			if pl.Position == "GK" {
				w.set(team, w.iri("hasGoalkeeper"), player)
			}
		}
	}
	// Bench players named only in substitutions.
	for _, s := range page.Subs {
		if _, ok := w.players[s.On]; ok {
			continue
		}
		player := w.named(iriSafe(s.On), "Player")
		w.players[s.On] = player
		w.setString(player, w.iri("hasName"), s.On)
		if team, ok := w.team(s.Team); ok {
			w.set(player, w.iri("playsFor"), team)
		}
	}

	// Basic-information goals, keyed for dedup against extracted goals.
	for _, g := range page.Goals {
		kind := soccer.KindGoal
		if g.OwnGoal {
			kind = soccer.KindOwnGoal
		}
		ev, _ := w.mint(kind)
		w.setInt(ev, w.inMinute, g.Minute)
		w.set(ev, w.inMatch, match)
		w.set(ev, w.extractedBy, w.byBasic)
		if pl, ok := w.players[g.Scorer]; ok {
			w.set(ev, w.iri("scorerPlayer"), pl)
		}
		// GoalInfo.Team is the credited team — for an own goal, the
		// opponent of the scorer, which is exactly what scoringTeam means.
		if team, ok := w.team(g.Team); ok {
			w.set(ev, w.scoringTeam, team)
		}
		w.goalByKey[eventKey{g.Minute, g.Scorer}] = ev
		pm.Events = append(pm.Events, EventRecord{Individual: ev, Kind: kind, Minute: g.Minute, NarrationIdx: -1})
	}
	// Basic-information substitutions.
	for _, s := range page.Subs {
		ev, _ := w.mint(soccer.KindSubstitution)
		w.setInt(ev, w.inMinute, s.Minute)
		w.set(ev, w.inMatch, match)
		w.set(ev, w.extractedBy, w.byBasic)
		if pl, ok := w.players[s.Off]; ok {
			w.set(ev, w.iri("substitutedPlayer"), pl)
		}
		if pl, ok := w.players[s.On]; ok {
			w.set(ev, w.iri("substitutePlayer"), pl)
		}
		if team, ok := w.team(s.Team); ok {
			w.set(ev, w.subjectTeam, team)
		}
		w.subByKey[eventKey{s.Minute, s.Off}] = ev
		pm.Events = append(pm.Events, EventRecord{Individual: ev, Kind: soccer.KindSubstitution, Minute: s.Minute, NarrationIdx: -1})
	}

	// Extracted events.
	for _, ev := range events {
		w.populateEvent(pm, ev)
	}
	return pm
}

// writer is one Populate call's state. It asserts by ID: each property,
// class and repeated literal is interned once per page, each individual
// when it is named or minted, and every triple after that is one AddIDs.
// Writers are pooled, their maps cleared between pages.
type writer struct {
	m   *owl.Model
	g   *rdf.Graph
	typ rdf.ID
	// byBasic and byIE are the two extractedBy values.
	byBasic, byIE rdf.ID
	// The properties of the events.
	inMinute, inMatch, extractedBy, narration rdf.ID
	subjectTeam, objectTeam, scoringTeam      rdf.ID
	// vocab holds the IDs of the other properties and classes used so far,
	// by local name; kinds those an event kind is asserted with; ints
	// those of the integer literals.
	vocab map[string]rdf.ID
	kinds map[soccer.EventKind]kindIDs
	ints  map[int]rdf.ID

	match     rdf.ID
	teamNames [2]string // home, away
	teams     [2]rdf.ID
	players   map[string]rdf.ID // by short name
	// goalByKey and subByKey hold the basic-information goals and
	// substitutions that extracted duplicates enrich.
	goalByKey, subByKey map[eventKey]rdf.ID
}

// kindIDs are the IDs an event of one kind is asserted with: its class
// and its subject and object role properties.
type kindIDs struct {
	class, subj, obj rdf.ID
}

var writers = sync.Pool{New: func() any {
	return &writer{
		vocab:     make(map[string]rdf.ID, 64),
		kinds:     make(map[soccer.EventKind]kindIDs, 48),
		ints:      make(map[int]rdf.ID, 128),
		players:   make(map[string]rdf.ID, 32),
		goalByKey: make(map[eventKey]rdf.ID, 8),
		subByKey:  make(map[eventKey]rdf.ID, 8),
	}
}}

// reset readies w for populating m, forgetting the page before.
func (w *writer) reset(m *owl.Model) {
	clear(w.vocab)
	clear(w.kinds)
	clear(w.ints)
	clear(w.players)
	clear(w.goalByKey)
	clear(w.subByKey)
	w.m, w.g = m, m.Graph
	w.typ = w.g.Intern(rdf.RDFType)
	w.byBasic = w.g.Intern(rdf.NewLiteral("basic"))
	w.byIE = w.g.Intern(rdf.NewLiteral("ie"))
	w.inMinute, w.inMatch = w.iri("inMinute"), w.iri("inMatch")
	w.extractedBy, w.narration = w.iri("extractedBy"), w.iri("narration")
	w.subjectTeam, w.objectTeam = w.iri("subjectTeam"), w.iri("objectTeam")
	w.scoringTeam = w.iri("scoringTeam")
}

// kind returns the IDs events of the kind are asserted with: the most
// specific role properties the ontology defines for it, or the generic
// ones.
func (w *writer) kind(k soccer.EventKind) kindIDs {
	ids, ok := w.kinds[k]
	if !ok {
		roles := roleProperties[k]
		subj, obj := cmp.Or(roles.subj, "subjectPlayer"), cmp.Or(roles.obj, "objectPlayer")
		ids = kindIDs{class: w.iri(string(k)), subj: w.iri(subj), obj: w.iri(obj)}
		w.kinds[k] = ids
	}
	return ids
}

// eventKey identifies a basic-information event by its minute and the
// player it names.
type eventKey struct {
	minute int
	who    string
}

// iri returns the ID of the property or class with the local name.
func (w *writer) iri(local string) rdf.ID {
	id, ok := w.vocab[local]
	if !ok {
		id = w.g.Intern(w.m.Ontology.IRI(local))
		w.vocab[local] = id
	}
	return id
}

// named asserts an individual with an explicit local name and class.
func (w *writer) named(name, class string) rdf.ID {
	id := w.g.Intern(w.m.Ontology.IRI(name))
	w.g.AddIDs(id, w.typ, w.iri(class))
	return id
}

// mint asserts a fresh sequentially named event individual of the kind's
// class, and returns it with the kind's IDs.
func (w *writer) mint(k soccer.EventKind) (rdf.ID, kindIDs) {
	ids := w.kind(k)
	id := w.g.Intern(w.m.Mint(string(k)))
	w.g.AddIDs(id, w.typ, ids.class)
	return id, ids
}

func (w *writer) set(ind, prop, value rdf.ID) { w.g.AddIDs(ind, prop, value) }

func (w *writer) setString(ind, prop rdf.ID, value string) {
	w.set(ind, prop, w.g.Intern(rdf.NewLiteral(value)))
}

func (w *writer) setInt(ind, prop rdf.ID, value int) {
	id, ok := w.ints[value]
	if !ok {
		id = w.g.Intern(rdf.NewInt(value))
		w.ints[value] = id
	}
	w.set(ind, prop, id)
}

// team returns the individual of the home or away team with the name.
func (w *writer) team(name string) (rdf.ID, bool) {
	for i, n := range w.teamNames {
		if n == name {
			return w.teams[i], true
		}
	}
	return 0, false
}

func (w *writer) populateEvent(pm *PopulatedMatch, ev ie.Event) {
	// Deduplicate against basic information: enrich instead of duplicating.
	if isGoalKind(ev.Kind) && ev.HasSubject() {
		if existing, ok := w.goalByKey[eventKey{ev.Minute, ev.Subject.Name}]; ok {
			// Add the more specific subtype (HeaderGoal etc.) and narration.
			w.g.AddIDs(existing, w.typ, w.kind(ev.Kind).class)
			w.setString(existing, w.narration, ev.Narration)
			attachRecordNarration(pm, existing, ev)
			return
		}
	}
	if ev.Kind == soccer.KindSubstitution && ev.HasSubject() {
		if existing, ok := w.subByKey[eventKey{ev.Minute, ev.Subject.Name}]; ok {
			w.setString(existing, w.narration, ev.Narration)
			attachRecordNarration(pm, existing, ev)
			return
		}
	}

	ind, kind := w.mint(ev.Kind)
	w.setInt(ind, w.inMinute, ev.Minute)
	w.set(ind, w.inMatch, w.match)
	w.setString(ind, w.narration, ev.Narration)
	if ev.Kind != soccer.KindUnknown {
		w.set(ind, w.extractedBy, w.byIE)
	}

	if ev.HasSubject() {
		if pl, ok := w.players[ev.Subject.Name]; ok {
			w.set(ind, kind.subj, pl)
		}
	}
	if ev.HasObject() {
		if pl, ok := w.players[ev.Object.Name]; ok {
			w.set(ind, kind.obj, pl)
		}
	}
	if ev.SubjectTeam != "" {
		if team, ok := w.team(ev.SubjectTeam); ok {
			w.set(ind, w.subjectTeam, team)
			if isGoalKind(ev.Kind) && ev.Kind != soccer.KindOwnGoal {
				w.set(ind, w.scoringTeam, team)
			}
		}
	}
	if ev.ObjectTeam != "" {
		if team, ok := w.team(ev.ObjectTeam); ok {
			w.set(ind, w.objectTeam, team)
		}
	}
	pm.Events = append(pm.Events, EventRecord{
		Individual: ind, Kind: ev.Kind, Minute: ev.Minute,
		Narration: ev.Narration, NarrationIdx: ev.NarrationIdx,
	})
}

// attachRecordNarration back-fills the narration on the EventRecord created
// from basic information once the extracted duplicate supplies the text.
func attachRecordNarration(pm *PopulatedMatch, ind rdf.ID, ev ie.Event) {
	for i := range pm.Events {
		if pm.Events[i].Individual == ind {
			if pm.Events[i].Narration == "" {
				pm.Events[i].Narration = ev.Narration
				pm.Events[i].NarrationIdx = ev.NarrationIdx
			}
			// Keep the most specific kind.
			if pm.Events[i].Kind == soccer.KindGoal && ev.Kind != soccer.KindGoal {
				pm.Events[i].Kind = ev.Kind
			}
			return
		}
	}
}

func isGoalKind(k soccer.EventKind) bool {
	switch k {
	case soccer.KindGoal, soccer.KindHeaderGoal, soccer.KindPenaltyGoal,
		soccer.KindFreeKickGoal, soccer.KindOwnGoal:
		return true
	}
	return false
}

// iriSafe turns display names into IRI-safe local names.
func iriSafe(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('_')
		default:
			// Drop apostrophes and other punctuation: Eto'o -> Etoo.
		}
	}
	return b.String()
}
