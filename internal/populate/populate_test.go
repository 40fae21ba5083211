package populate

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/ie"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/soccer"
)

func populated(t testing.TB, seed int64) (*Populator, *PopulatedMatch, *soccer.Match) {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: 1, Seed: seed, NarrationsPerMatch: 60})
	m := c.Matches[0]
	page, err := crawler.ParseMatchPage(crawler.RenderMatchPage(m))
	if err != nil {
		t.Fatal(err)
	}
	events := ie.Extractor{}.ExtractMatch(page)
	p := &Populator{Ontology: soccer.BuildOntology()}
	return p, p.Populate(page, events), m
}

func TestPopulateMatchStructure(t *testing.T) {
	p, pm, m := populated(t, 5)
	o := p.Ontology
	g := pm.Model.Graph

	if !g.HasSPO(pm.MatchIRI, rdf.RDFType, o.IRI("Match")) {
		t.Error("match individual missing")
	}
	home := g.FirstObject(pm.MatchIRI, o.IRI("homeTeam"))
	away := g.FirstObject(pm.MatchIRI, o.IRI("awayTeam"))
	if home.IsZero() || away.IsZero() || home == away {
		t.Errorf("teams: home=%v away=%v", home, away)
	}
	if hs, _ := g.FirstObject(pm.MatchIRI, o.IRI("homeScore")).Int(); hs != m.HomeScore {
		t.Errorf("homeScore = %d, want %d", hs, m.HomeScore)
	}
	// Each team must have 11 lineup players and a goalkeeper.
	for _, team := range []rdf.Term{home, away} {
		players := g.Objects(team, o.IRI("hasPlayer"))
		if len(players) != 11 {
			t.Errorf("team %v has %d players", team, len(players))
		}
		if g.FirstObject(team, o.IRI("hasGoalkeeper")).IsZero() {
			t.Errorf("team %v has no goalkeeper", team)
		}
	}
}

// TestPopulationFig4 mirrors the paper's Fig. 4: the narration "Keita
// commits a foul after challenging Belletti" style input must become a Foul
// individual with foulingPlayer and fouledPlayer filled.
func TestPopulationFig4(t *testing.T) {
	p, pm, m := populated(t, 5)
	o := p.Ontology
	g := pm.Model.Graph

	fouls := g.Subjects(rdf.RDFType, o.IRI("Foul"))
	if len(fouls) == 0 {
		t.Fatal("no Foul individuals populated")
	}
	withBoth := 0
	for _, f := range fouls {
		s := g.FirstObject(f, o.IRI("foulingPlayer"))
		ob := g.FirstObject(f, o.IRI("fouledPlayer"))
		if !s.IsZero() && !ob.IsZero() {
			withBoth++
		}
	}
	if withBoth == 0 {
		t.Error("no foul has both fouling and fouled players")
	}
	_ = m
}

func TestPlayersGetPositionClasses(t *testing.T) {
	p, pm, _ := populated(t, 5)
	o := p.Ontology
	g := pm.Model.Graph
	// The lineups guarantee one of each position per team.
	for _, cls := range []string{"GoalkeeperPlayer", "LeftBack", "CenterBack", "CentralMidfielder", "CenterForward"} {
		if len(g.Subjects(rdf.RDFType, o.IRI(cls))) == 0 {
			t.Errorf("no individual typed %s", cls)
		}
	}
}

func TestGoalDeduplication(t *testing.T) {
	p, pm, m := populated(t, 5)
	o := p.Ontology
	g := pm.Model.Graph
	// Every basic-info goal also appears in a narration; dedup must keep
	// exactly one Goal-or-subtype individual per scored goal.
	goalInds := map[rdf.Term]bool{}
	for _, cls := range []string{"Goal", "HeaderGoal", "PenaltyGoal", "FreeKickGoal", "OwnGoal"} {
		for _, ind := range g.Subjects(rdf.RDFType, o.IRI(cls)) {
			goalInds[ind] = true
		}
	}
	if len(goalInds) != len(m.Goals) {
		t.Errorf("%d goal individuals for %d goals", len(goalInds), len(m.Goals))
	}
	// Deduped goals keep their narration.
	for ind := range goalInds {
		if g.FirstObject(ind, o.IRI("narration")).IsZero() {
			t.Errorf("goal %v lost its narration", ind)
		}
	}
	_ = pm
}

func TestSubstitutionDeduplication(t *testing.T) {
	p, pm, m := populated(t, 5)
	o := p.Ontology
	subs := pm.Model.Graph.Subjects(rdf.RDFType, o.IRI("Substitution"))
	if len(subs) != len(m.Substitutions) {
		t.Errorf("%d substitution individuals for %d subs", len(subs), len(m.Substitutions))
	}
}

func TestUnknownEventsKept(t *testing.T) {
	p, pm, m := populated(t, 5)
	o := p.Ontology
	unknowns := pm.Model.Graph.Subjects(rdf.RDFType, o.IRI("UnknownEvent"))
	if len(unknowns) == 0 {
		t.Fatal("no UnknownEvent individuals (color narrations dropped)")
	}
	// Unknown events must retain their narration for full-text recall.
	for _, u := range unknowns {
		if pm.Model.Graph.FirstObject(u, o.IRI("narration")).IsZero() {
			t.Errorf("unknown event %v has no narration", u)
		}
	}
	narrCount := len(m.Narrations)
	if len(pm.Events) > narrCount+len(m.Goals)+len(m.Substitutions) {
		t.Errorf("implausible event count %d", len(pm.Events))
	}
}

func TestEventRecordsCoverEveryNarration(t *testing.T) {
	_, pm, m := populated(t, 11)
	withNarr := 0
	for _, r := range pm.Events {
		if r.Narration != "" {
			withNarr++
		}
	}
	if withNarr != len(m.Narrations) {
		t.Errorf("%d records carry narrations, corpus has %d", withNarr, len(m.Narrations))
	}
}

func TestPopulatedModelConsistent(t *testing.T) {
	p, pm, _ := populated(t, 5)
	r := reasoner.New(p.Ontology)
	inf := r.Materialize(pm.Model)
	if v := r.CheckConsistency(inf); len(v) != 0 {
		for _, x := range v[:min(5, len(v))] {
			t.Errorf("violation: %s", x)
		}
	}
}

func TestFullPipelineInferenceSmoke(t *testing.T) {
	// Populate -> materialize -> rules -> materialize: the assist rule
	// needs the type closure first (populated passes are LongPass etc. and
	// the rule matches pre:Pass), and must fire at least once across a few
	// seeds (65% of open-play goals have a same-minute pass to the scorer).
	assists := 0
	for seed := int64(1); seed <= 5; seed++ {
		p, pm, _ := populated(t, seed)
		r := reasoner.New(p.Ontology)
		inf := r.Materialize(pm.Model)
		rules.Compile(soccer.Rules()).Engine(inf.Graph).Run()
		inf = r.Materialize(inf)
		assists += len(inf.Graph.Subjects(rdf.RDFType, p.Ontology.IRI("Assist")))
	}
	if assists == 0 {
		t.Error("assist rule never fired over 5 matches")
	}
}

// TestUnknownTeamAssertsNothing: ParseMatchPage accepts bench players,
// goals and substitutions whose team is neither side. Their team triple is
// skipped, as an unknown scorer's scorerPlayer triple is, and the zero
// Term, which is not a term, never enters the graph.
func TestUnknownTeamAssertsNothing(t *testing.T) {
	page := &crawler.MatchPage{
		ID: "M1", Home: "Alpha", Away: "Beta", Date: "2009-05-01", Referee: "Ref", Stadium: "Ground",
		Lineups: map[string][]crawler.PlayerLine{"Alpha": {{Name: "Ian Rush", Short: "Rush", Position: "CF", Shirt: 9}}},
		Goals:   []crawler.GoalLine{{Minute: 10, Scorer: "Rush", Team: "Gamma"}},
		Subs:    []crawler.SubLine{{Minute: 60, Off: "Rush", On: "Bench", Team: "Gamma"}},
	}
	p := &Populator{Ontology: soccer.BuildOntology()}
	g := p.Populate(page, nil).Model.Graph
	if _, ok := g.Lookup(rdf.Term{}); ok {
		t.Error("the zero Term was interned")
	}
	o := p.Ontology
	for _, prop := range []string{"scoringTeam", "subjectTeam"} {
		if ts := g.Match(rdf.Wildcard, o.IRI(prop), rdf.Wildcard); len(ts) != 0 {
			t.Errorf("%s asserted for an unknown team: %v", prop, ts)
		}
	}
	if ts := g.Match(o.IRI("Bench"), o.IRI("playsFor"), rdf.Wildcard); len(ts) != 0 {
		t.Errorf("bench player's team asserted: %v", ts)
	}
	if scorer := g.Match(rdf.Wildcard, o.IRI("scorerPlayer"), o.IRI("Ian_Rush")); len(scorer) != 1 {
		t.Errorf("known scorer asserted %d times", len(scorer))
	}
}

func TestIRISafe(t *testing.T) {
	cases := map[string]string{
		"Samuel Eto'o":     "Samuel_Etoo",
		"Van der Sar":      "Van_der_Sar",
		"Real Madrid":      "Real_Madrid",
		"Güiza":            "Giza",
		"Chelsea_Barca_09": "Chelsea_Barca_09",
	}
	for in, want := range cases {
		if got := iriSafe(in); got != want {
			t.Errorf("iriSafe(%q) = %q, want %q", in, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
