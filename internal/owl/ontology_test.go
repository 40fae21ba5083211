package owl

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func tinyOntology() *Ontology {
	o := New(rdf.NSSoccer)
	o.AddClass("Event")
	o.AddClass("PositiveEvent", "Event")
	o.AddClass("NegativeEvent", "Event")
	o.AddClass("Goal", "PositiveEvent")
	o.AddClass("Foul", "NegativeEvent")
	o.AddClass("Player")
	o.AddClass("GoalkeeperPlayer", "Player")
	o.AddDisjoint("PositiveEvent", "NegativeEvent")
	o.AddObjectProperty("subjectPlayer")
	o.AddObjectProperty("scorerPlayer", "subjectPlayer")
	o.SetDomain("scorerPlayer", "Goal")
	o.SetRange("scorerPlayer", "Player")
	o.AddDataProperty("inMinute")
	o.SetDomain("inMinute", "Event")
	o.SetRangeIRI("inMinute", rdf.NewIRI(rdf.XSDInteger))
	o.SetFunctional("inMinute")
	o.ValueConstraint("Goal", "scorerPlayer", "Player")
	o.MaxCardinalityConstraint("Goal", "scorerPlayer", 1)
	return o
}

func TestOntologyBuild(t *testing.T) {
	o := tinyOntology()
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := o.Stats()
	if s.Classes != 7 {
		t.Errorf("Classes = %d, want 7", s.Classes)
	}
	if s.ObjectProperties != 2 || s.DataProperties != 1 {
		t.Errorf("properties = %d obj, %d data", s.ObjectProperties, s.DataProperties)
	}
	if s.Properties() != 3 {
		t.Errorf("Properties() = %d, want 3", s.Properties())
	}
	if s.Restrictions != 2 {
		t.Errorf("Restrictions = %d, want 2", s.Restrictions)
	}
	if s.DisjointPairs != 1 {
		t.Errorf("DisjointPairs = %d, want 1", s.DisjointPairs)
	}
}

func TestAddClassMergesParents(t *testing.T) {
	o := New(rdf.NSSoccer)
	o.AddClass("A")
	o.AddClass("B")
	o.AddClass("C", "A")
	o.AddClass("C", "B")
	o.AddClass("C", "A") // duplicate parent must not repeat
	c := o.ClassByIRI(o.IRI("C"))
	if len(c.Parents) != 2 {
		t.Errorf("parents = %v", c.Parents)
	}
}

func TestDirectSubClassesAndRoots(t *testing.T) {
	o := tinyOntology()
	subs := o.DirectSubClasses(o.IRI("Event"))
	if len(subs) != 2 {
		t.Fatalf("subclasses of Event = %v", subs)
	}
	roots := o.Roots()
	if len(roots) != 2 { // Event, Player
		t.Errorf("roots = %v", roots)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Ontology
		want  string
	}{
		{"undeclared parent", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddClass("A", "Missing")
			return o
		}, "undeclared parent"},
		{"undeclared property parent", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("p", "missing")
			return o
		}, "undeclared parent"},
		{"kind mismatch", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("op")
			o.AddDataProperty("dp", "op")
			return o
		}, "different kinds"},
		{"undeclared domain", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("p")
			o.SetDomain("p", "Missing")
			return o
		}, "undeclared domain"},
		{"undeclared range", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("p")
			o.SetRange("p", "Missing")
			return o
		}, "undeclared range"},
		{"restriction missing class", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("p")
			o.AddRestriction(Restriction{OnClass: o.IRI("X"), OnProperty: o.IRI("p"), Kind: MaxCardinality, Cardinality: 1})
			return o
		}, "restriction on undeclared class"},
		{"restriction missing filler", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddClass("A")
			o.AddObjectProperty("p")
			o.ValueConstraint("A", "p", "Missing")
			return o
		}, "filler"},
		{"negative cardinality", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddClass("A")
			o.AddObjectProperty("p")
			o.AddRestriction(Restriction{OnClass: o.IRI("A"), OnProperty: o.IRI("p"), Kind: MaxCardinality, Cardinality: -1})
			return o
		}, "negative cardinality"},
		{"class cycle", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddClass("A", "B")
			o.AddClass("B", "A")
			return o
		}, "cycle"},
		{"property cycle", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddObjectProperty("p", "q")
			o.AddObjectProperty("q", "p")
			return o
		}, "cycle"},
		{"disjoint undeclared", func() *Ontology {
			o := New(rdf.NSSoccer)
			o.AddClass("A")
			o.AddDisjoint("A", "B")
			return o
		}, "disjoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid ontology")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

func TestTBoxGraph(t *testing.T) {
	o := tinyOntology()
	g := o.TBoxGraph()
	if !g.HasSPO(o.IRI("Goal"), rdf.RDFSSubClassOf, o.IRI("PositiveEvent")) {
		t.Error("missing subClassOf triple")
	}
	if !g.HasSPO(o.IRI("scorerPlayer"), rdf.RDFSSubPropertyOf, o.IRI("subjectPlayer")) {
		t.Error("missing subPropertyOf triple")
	}
	if !g.HasSPO(o.IRI("scorerPlayer"), rdf.RDFSDomain, o.IRI("Goal")) {
		t.Error("missing domain triple")
	}
	if !g.HasSPO(o.IRI("inMinute"), rdf.RDFType, rdf.OWLDataProperty) {
		t.Error("missing datatype property declaration")
	}
	if !g.HasSPO(o.IRI("PositiveEvent"), rdf.OWLDisjointWith, o.IRI("NegativeEvent")) {
		t.Error("missing disjointWith triple")
	}
}

func TestHierarchyString(t *testing.T) {
	o := tinyOntology()
	h := o.HierarchyString()
	if !strings.Contains(h, "Event\n  NegativeEvent\n    Foul") {
		t.Errorf("hierarchy missing indented subtree:\n%s", h)
	}
	if !strings.Contains(h, "  GoalkeeperPlayer") {
		t.Errorf("hierarchy missing GoalkeeperPlayer:\n%s", h)
	}
}

func TestRestrictionKindString(t *testing.T) {
	kinds := map[RestrictionKind]string{
		AllValuesFrom:  "allValuesFrom",
		SomeValuesFrom: "someValuesFrom",
		MaxCardinality: "maxCardinality",
		MinCardinality: "minCardinality",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("String(%d) = %q", k, k.String())
		}
	}
}

func TestModelIndividuals(t *testing.T) {
	o := tinyOntology()
	m := NewModel(o)
	g1 := m.NewIndividual("Goal")
	g2 := m.NewIndividual("Goal")
	if g1 == g2 {
		t.Error("NewIndividual repeated an IRI")
	}
	if g1 != o.IRI("Goal_1") || g2 != o.IRI("Goal_2") {
		t.Errorf("sequential naming broken: %v, %v", g1, g2)
	}
	if !m.Graph.HasSPO(g1, rdf.RDFType, o.IRI("Goal")) {
		t.Error("type not asserted")
	}

	messi := m.NamedIndividual("Lionel_Messi", "Player")
	m.Set(g1, "scorerPlayer", messi)
	m.Set(g1, "inMinute", rdf.NewInt(10))
	m.SetString(g1, "narration", "Messi scores!")

	if m.Graph.FirstObject(g1, o.IRI("scorerPlayer")) != messi {
		t.Error("scorerPlayer wrong")
	}
	if v, _ := m.Graph.FirstObject(g1, o.IRI("inMinute")).Int(); v != 10 {
		t.Error("inMinute wrong")
	}
	if got := m.Graph.Objects(g1, o.IRI("narration")); len(got) != 1 || got[0].Value != "Messi scores!" {
		t.Errorf("narration = %v", got)
	}
	if got := m.Graph.Subjects(rdf.RDFType, o.IRI("Goal")); len(got) != 2 {
		t.Errorf("individuals of Goal = %v", got)
	}
	if got := m.Graph.Objects(messi, rdf.RDFType); len(got) != 1 || got[0] != o.IRI("Player") {
		t.Errorf("types = %v", got)
	}
}

func TestModelClone(t *testing.T) {
	o := tinyOntology()
	m := NewModel(o)
	m.NewIndividual("Goal")
	c := m.Clone()
	c.NewIndividual("Goal")
	if m.Graph.Len() != 1 {
		t.Error("clone mutation leaked")
	}
	// Counter must have been copied so the clone continues the sequence.
	if !c.Graph.HasSPO(o.IRI("Goal_2"), rdf.RDFType, o.IRI("Goal")) {
		t.Error("clone did not continue individual numbering")
	}
}
