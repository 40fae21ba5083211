package inference

import (
	"testing"

	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/soccer"
)

func setup(t testing.TB) (*owl.Ontology, *reasoner.Reasoner) {
	t.Helper()
	ont := soccer.BuildOntology()
	return ont, reasoner.New(ont)
}

// TestAssistRuleFig6 exercises the full Fig. 6 scenario through the joint
// reasoner+rules fixpoint: a LongPass (not a Pass — closure required) and a
// goal in the same minute with receiver == scorer must mint one Assist,
// which then gets its own class closure and actor properties.
func TestAssistRuleFig6(t *testing.T) {
	ont, r := setup(t)
	m := owl.NewModel(ont)
	match := m.NamedIndividual("Match_1", "Match")
	iniesta := m.NamedIndividual("Iniesta", "AttackingMidfielder")
	etoo := m.NamedIndividual("Etoo", "CenterForward")

	pass := m.NewIndividual("LongPass")
	m.Set(pass, "passingPlayer", iniesta)
	m.Set(pass, "passReceiver", etoo)
	m.Set(pass, "inMatch", match)
	m.Set(pass, "inMinute", rdf.NewInt(10))

	goal := m.NewIndividual("Goal")
	m.Set(goal, "scorerPlayer", etoo)
	m.Set(goal, "inMatch", match)
	m.Set(goal, "inMinute", rdf.NewInt(10))

	res := Run(r, soccer.Rules(), m)
	g := res.Model.Graph

	assists := g.Subjects(rdf.RDFType, ont.IRI("Assist"))
	if len(assists) != 1 {
		t.Fatalf("%d assists minted", len(assists))
	}
	a := assists[0]
	if g.FirstObject(a, ont.IRI("passingPlayer")) != iniesta {
		t.Error("assist passer wrong")
	}
	// The assist is lifted to PositiveEvent/Event by the second closure pass.
	if !g.HasSPO(a, rdf.RDFType, ont.IRI("PositiveEvent")) {
		t.Error("assist missing class closure")
	}
	// The actor rule + property closure reaches actorOfPositiveMove.
	if !g.HasSPO(iniesta, ont.IRI("actorOfPositiveMove"), a) {
		t.Error("actorOfPositiveMove not derived for the assist")
	}
	// Provenance names the assist rule.
	tr := rdf.NewTriple(a, rdf.RDFType, ont.IRI("Assist"))
	if res.RuleProvenance[tr] != "assistRule" {
		t.Errorf("provenance = %q", res.RuleProvenance[tr])
	}
	// Input untouched.
	if len(m.Graph.Subjects(rdf.RDFType, ont.IRI("Assist"))) != 0 {
		t.Error("Run mutated its input model")
	}
}

// TestScoredToGoalkeeperChain checks the Q-6 inference chain end to end:
// goal -> scoringTeam -> concedingTeam (rule, via match structure) ->
// scoredToGoalkeeper (rule, via hasGoalkeeper) -> objectPlayer (closure).
func TestScoredToGoalkeeperChain(t *testing.T) {
	ont, r := setup(t)
	m := owl.NewModel(ont)
	match := m.NamedIndividual("Match_1", "Match")
	united := m.NamedIndividual("United", "Team")
	real := m.NamedIndividual("Real", "Team")
	m.Set(match, "homeTeam", real)
	m.Set(match, "awayTeam", united)
	casillas := m.NamedIndividual("Casillas", "GoalkeeperPlayer")
	m.Set(real, "hasGoalkeeper", casillas)
	rooney := m.NamedIndividual("Rooney", "CenterForward")
	m.Set(rooney, "playsFor", united)

	goal := m.NewIndividual("Goal")
	m.Set(goal, "scorerPlayer", rooney)
	m.Set(goal, "inMatch", match)
	m.Set(goal, "inMinute", rdf.NewInt(30))

	res := Run(r, soccer.Rules(), m)
	g := res.Model.Graph
	if !g.HasSPO(goal, ont.IRI("scoringTeam"), united) {
		t.Error("scoringTeam not derived from playsFor")
	}
	if !g.HasSPO(goal, ont.IRI("concedingTeam"), real) {
		t.Error("concedingTeam not derived from match structure")
	}
	if !g.HasSPO(goal, ont.IRI("scoredToGoalkeeper"), casillas) {
		t.Error("scoredToGoalkeeper not derived")
	}
	if !g.HasSPO(goal, ont.IRI("objectPlayer"), casillas) {
		t.Error("scoredToGoalkeeper not lifted to objectPlayer")
	}
}

func TestRunReachesFixpoint(t *testing.T) {
	ont, r := setup(t)
	m := owl.NewModel(ont)
	goal := m.NewIndividual("HeaderGoal")
	m.Set(goal, "scorerPlayer", m.NamedIndividual("Messi", "RightWinger"))
	res := Run(r, soccer.Rules(), m)
	// Running again over the output must add nothing.
	res2 := Run(r, soccer.Rules(), res.Model)
	if res2.Model.Graph.Len() != res.Model.Graph.Len() {
		t.Errorf("second Run grew the graph: %d -> %d",
			res.Model.Graph.Len(), res2.Model.Graph.Len())
	}
}

func TestWinnerRule(t *testing.T) {
	ont, r := setup(t)
	m := owl.NewModel(ont)
	match := m.NamedIndividual("Match_1", "Match")
	a := m.NamedIndividual("A", "Team")
	b := m.NamedIndividual("B", "Team")
	m.Set(match, "homeTeam", a)
	m.Set(match, "awayTeam", b)
	m.Set(match, "homeScore", rdf.NewInt(3))
	m.Set(match, "awayScore", rdf.NewInt(1))
	res := Run(r, soccer.Rules(), m)
	if res.Model.Graph.FirstObject(match, ont.IRI("winnerTeam")) != a {
		t.Error("winnerTeam wrong")
	}
	if res.Model.Graph.FirstObject(match, ont.IRI("loserTeam")) != b {
		t.Error("loserTeam wrong")
	}
}
