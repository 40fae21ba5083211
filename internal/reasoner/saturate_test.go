package reasoner

import (
	"testing"

	"repro/internal/owl"
	"repro/internal/rdf"
)

// TestSaturatorResumesFromTheDelta checks the incremental contract
// inference.Run relies on: a second Run closes over what was added since
// the first — whatever order the two premises of an allValuesFrom axiom
// arrive in — and a Run with nothing new adds nothing.
func TestSaturatorResumesFromTheDelta(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	for _, typeFirst := range []bool{true, false} {
		m := owl.NewModel(o)
		g := m.Graph
		team, keeper := o.IRI("Barcelona"), o.IRI("Valdes")
		typed := rdf.NewTriple(team, rdf.RDFType, o.IRI("Team"))
		value := rdf.NewTriple(team, o.IRI("hasGoalkeeper"), keeper)
		first, second := typed, value
		if !typeFirst {
			first, second = value, typed
		}

		s := r.Saturator(g)
		g.Add(first)
		s.Run()
		if typeFirst && g.HasSPO(keeper, rdf.RDFType, o.IRI("GoalkeeperPlayer")) {
			t.Fatal("filler type derived before the property value exists")
		}
		g.Add(second)
		s.Run()
		// Team ⊑ ∀hasGoalkeeper.GoalkeeperPlayer, then the class closure
		// of the derived type.
		for _, c := range []string{"GoalkeeperPlayer", "Player"} {
			if !g.HasSPO(keeper, rdf.RDFType, o.IRI(c)) {
				t.Errorf("typeFirst=%v: keeper not typed %s after the second Run", typeFirst, c)
			}
		}
		before := g.Len()
		s.Run()
		if g.Len() != before {
			t.Errorf("typeFirst=%v: Run with no new triples added %d", typeFirst, g.Len()-before)
		}
		// The incremental result is the one-shot closure.
		oneShot := owl.NewModel(o)
		oneShot.Graph.Add(typed)
		oneShot.Graph.Add(value)
		if want := r.Materialize(oneShot).Graph; want.Len() != g.Len() {
			t.Errorf("typeFirst=%v: incremental closure %d triples, one-shot %d", typeFirst, g.Len(), want.Len())
		}
	}
}

// TestSaturatorIgnoresLaterTerms: terms that enter the graph after the
// Saturator was bound (rule-minted blanks, new literals) are ABox terms,
// and schema terms keep working.
func TestSaturatorIgnoresLaterTerms(t *testing.T) {
	r := newSoccerReasoner(t)
	o := r.Ontology()
	m := owl.NewModel(o)
	s := r.Saturator(m.Graph)
	tmp := m.Graph.NewBlankNode()
	m.Graph.AddSPO(tmp, rdf.RDFType, o.IRI("Assist"))
	m.Graph.AddSPO(tmp, o.IRI("inMinute"), rdf.NewInt(12))
	s.Run()
	if !m.Graph.HasSPO(tmp, rdf.RDFType, o.IRI("Event")) {
		t.Error("late blank node not lifted to Event")
	}
}
