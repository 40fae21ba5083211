package reasoner

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/soccer"
)

func newSoccerReasoner(t testing.TB) *Reasoner {
	t.Helper()
	return New(soccer.BuildOntology())
}

func TestNewPanicsOnInvalidOntology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on cyclic ontology")
		}
	}()
	o := owl.New(rdf.NSSoccer)
	o.AddClass("A", "B")
	o.AddClass("B", "A")
	New(o)
}

func TestClassificationFig5(t *testing.T) {
	// Fig. 5: the inferred class hierarchy of LongPass is
	// LongPass ⊑ Pass ⊑ PositiveEvent ⊑ Event.
	r := newSoccerReasoner(t)
	o := r.Ontology()
	anc := r.Ancestors(o.IRI("LongPass"))
	want := []string{"Event", "Pass", "PositiveEvent"}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors(LongPass) = %v, want %v", anc, want)
	}
	for i, w := range want {
		if anc[i] != o.IRI(w) {
			t.Errorf("ancestor[%d] = %v, want %s", i, anc[i], w)
		}
	}
}

func TestIsSubClassOf(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"LongPass", "Event", true},
		{"LongPass", "LongPass", true},
		{"YellowCard", "Punishment", true},
		{"SecondYellowCard", "Punishment", true}, // two levels via RedCard
		{"LeftBack", "DefencePlayer", true},
		{"LeftBack", "Player", true},
		{"Goal", "NegativeEvent", false},
		{"Event", "Goal", false},
	}
	for _, c := range cases {
		if got := r.IsSubClassOf(o.IRI(c.sub), o.IRI(c.super)); got != c.want {
			t.Errorf("IsSubClassOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestSubClassesForQueryExpansion(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	subs := r.SubClasses(o.IRI("Punishment"))
	names := localNames(subs)
	if !contains(names, "YellowCard") || !contains(names, "RedCard") || !contains(names, "SecondYellowCard") {
		t.Errorf("SubClasses(Punishment) = %v", names)
	}
	if contains(names, "Punishment") {
		t.Error("SubClasses included the class itself")
	}
}

func TestPropertyAncestors(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	anc := localNames(r.PropertyAncestors(o.IRI("actorOfRedCard")))
	if !contains(anc, "actorOfNegativeMove") || !contains(anc, "actorOfMove") {
		t.Errorf("PropertyAncestors(actorOfRedCard) = %v", anc)
	}
	if contains(anc, "actorOfPositiveMove") {
		t.Error("actorOfRedCard lifted to the positive branch")
	}
}

func TestMaterializeTypeClosure(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	g := m.NewIndividual("HeaderGoal")
	inf := r.Materialize(m)
	for _, want := range []string{"HeaderGoal", "Goal", "PositiveEvent", "Event"} {
		if !inf.Graph.HasSPO(g, rdf.RDFType, o.IRI(want)) {
			t.Errorf("materialized model missing type %s", want)
		}
	}
	// The source model must be untouched.
	if len(m.Graph.Objects(g, rdf.RDFType)) != 1 {
		t.Error("Materialize mutated its input")
	}
}

func TestMaterializePropertyClosure(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	goal := m.NewIndividual("Goal")
	messi := m.NamedIndividual("Messi", "Player")
	m.Set(goal, "scorerPlayer", messi)
	inf := r.Materialize(m)
	if !inf.Graph.HasSPO(goal, o.IRI("subjectPlayer"), messi) {
		t.Error("scorerPlayer not lifted to subjectPlayer")
	}
}

func TestMaterializeDomainRangeInference(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	// Assert scorerPlayer on an untyped node: domain says it is a Goal,
	// range says the value is a Player; closure lifts both to Event/Person.
	e := o.IRI("mystery_event")
	p := o.IRI("mystery_player")
	m.Graph.AddSPO(e, o.IRI("scorerPlayer"), p)
	inf := r.Materialize(m)
	if !inf.Graph.HasSPO(e, rdf.RDFType, o.IRI("Goal")) {
		t.Error("domain inference missed Goal")
	}
	if !inf.Graph.HasSPO(e, rdf.RDFType, o.IRI("Event")) {
		t.Error("domain closure missed Event")
	}
	if !inf.Graph.HasSPO(p, rdf.RDFType, o.IRI("Player")) {
		t.Error("range inference missed Player")
	}
	if !inf.Graph.HasSPO(p, rdf.RDFType, o.IRI("Person")) {
		t.Error("range closure missed Person")
	}
}

func TestMaterializeScoredToGoalkeeperRange(t *testing.T) {
	// The paper's example: a property whose range is restricted to a class
	// types its values — whoever a goal is scored to is a GoalkeeperPlayer.
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	goal := m.NewIndividual("Goal")
	keeper := m.NamedIndividual("Casillas", "Player")
	m.Set(goal, "scoredToGoalkeeper", keeper)
	inf := r.Materialize(m)
	if !inf.Graph.HasSPO(keeper, rdf.RDFType, o.IRI("GoalkeeperPlayer")) {
		t.Error("range restriction did not type Casillas as GoalkeeperPlayer")
	}
}

func TestMaterializeAllValuesFrom(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	team := m.NamedIndividual("Barcelona", "Team")
	victor := m.NamedIndividual("Victor_Valdes", "Player")
	m.Set(team, "hasGoalkeeper", victor)
	inf := r.Materialize(m)
	if !inf.Graph.HasSPO(victor, rdf.RDFType, o.IRI("GoalkeeperPlayer")) {
		t.Error("allValuesFrom did not infer GoalkeeperPlayer")
	}
}

func TestDirectTypesRealization(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	g := m.NewIndividual("HeaderGoal")
	inf := r.Materialize(m)
	ind, _ := inf.Graph.Lookup(g)
	direct := r.DirectTypes(inf.Graph, ind)
	if len(direct) != 1 || inf.Graph.Term(direct[0]) != o.IRI("HeaderGoal") {
		t.Errorf("DirectTypes = %v, want [HeaderGoal]", direct)
	}
}

func TestAreDisjointInherited(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	// Goal ⊑ PositiveEvent and Foul ⊑ NegativeEvent: disjointness of the
	// parents must propagate to the children.
	if !r.AreDisjoint(o.IRI("Goal"), o.IRI("Foul")) {
		t.Error("Goal and Foul not disjoint via inherited axiom")
	}
	if !r.AreDisjoint(o.IRI("Foul"), o.IRI("Goal")) {
		t.Error("disjointness not symmetric")
	}
	if r.AreDisjoint(o.IRI("Goal"), o.IRI("HeaderGoal")) {
		t.Error("class disjoint with its own subclass")
	}
}

func TestCheckConsistencyClean(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	goal := m.NewIndividual("Goal")
	m.Set(goal, "scorerPlayer", m.NamedIndividual("Messi", "Player"))
	if v := r.CheckConsistency(r.Materialize(m)); len(v) != 0 {
		t.Errorf("violations on clean model: %v", v)
	}
}

func TestCheckConsistencyDisjoint(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	e := o.IRI("weird")
	m.Graph.AddSPO(e, rdf.RDFType, o.IRI("Goal"))
	m.Graph.AddSPO(e, rdf.RDFType, o.IRI("Foul"))
	vs := r.CheckConsistency(r.Materialize(m))
	if len(vs) == 0 {
		t.Fatal("disjointness violation not detected")
	}
	if vs[0].Kind != "disjoint" {
		t.Errorf("kind = %s", vs[0].Kind)
	}
	if !strings.Contains(vs[0].String(), "weird") {
		t.Errorf("String() = %q", vs[0].String())
	}
}

func TestCheckConsistencyMaxCardinality(t *testing.T) {
	// "Only one goalkeeper is allowed in the game."
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	team := m.NamedIndividual("Chelsea", "Team")
	m.Set(team, "hasGoalkeeper", m.NamedIndividual("Cech", "GoalkeeperPlayer"))
	m.Set(team, "hasGoalkeeper", m.NamedIndividual("Hilario", "GoalkeeperPlayer"))
	vs := r.CheckConsistency(r.Materialize(m))
	found := false
	for _, v := range vs {
		if v.Kind == "maxCardinality" && v.Individual == team {
			found = true
		}
	}
	if !found {
		t.Errorf("maxCardinality violation not found: %v", vs)
	}
}

func TestCheckConsistencyFunctional(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	g := m.NewIndividual("Goal")
	m.Set(g, "inMinute", rdf.NewInt(10))
	m.Set(g, "inMinute", rdf.NewInt(12))
	vs := r.CheckConsistency(m)
	found := false
	for _, v := range vs {
		if v.Kind == "functional" {
			found = true
		}
	}
	if !found {
		t.Errorf("functional violation not found: %v", vs)
	}
}

func TestMaterializeIdempotent(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	goal := m.NewIndividual("PenaltyGoal")
	m.Set(goal, "scorerPlayer", m.NamedIndividual("Messi", "Player"))
	m.Set(goal, "scoredToGoalkeeper", m.NamedIndividual("Casillas", "Player"))
	once := r.Materialize(m)
	twice := r.Materialize(once)
	if once.Graph.Len() != twice.Graph.Len() {
		t.Errorf("Materialize not idempotent: %d then %d triples", once.Graph.Len(), twice.Graph.Len())
	}
}

// Property: materialization is monotone (never loses triples) and closed
// under subclass lifting for every asserted type.
func TestMaterializeMonotoneProperty(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	classes := o.Classes()
	f := func(picks []uint8) bool {
		m := owl.NewModel(o)
		for _, p := range picks {
			c := classes[int(p)%len(classes)]
			m.NewIndividual(c.IRI.LocalName())
		}
		inf := r.Materialize(m)
		for _, tr := range m.Graph.All() {
			if !inf.Graph.Has(tr) {
				return false
			}
		}
		for _, tr := range inf.Graph.Match(rdf.Wildcard, rdf.RDFType, rdf.Wildcard) {
			for _, anc := range r.Ancestors(tr.O) {
				if !inf.Graph.HasSPO(tr.S, rdf.RDFType, anc) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func localNames(ts []rdf.Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.LocalName()
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
