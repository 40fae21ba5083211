package owl

import (
	"strconv"

	"repro/internal/rdf"
)

// Model is an ABox: a set of individuals asserted against an ontology,
// stored as an RDF graph. The pipeline keeps one Model per soccer game —
// the paper's scalability measure of keeping "each soccer game separate
// from each other" so inference cost is independent of corpus size.
type Model struct {
	// Ontology is the TBox the individuals are asserted against.
	Ontology *Ontology
	// Graph holds the assertions.
	Graph *rdf.Graph
	// IDPrefix namespaces the sequential individuals minted by
	// NewIndividual. The populator sets it to the match ID so per-match
	// models can be merged into one graph without event-IRI collisions.
	IDPrefix string

	nextID map[string]int
}

// NewModel returns an empty ABox over the given ontology.
func NewModel(o *Ontology) *Model { return NewModelOn(o, rdf.NewGraph()) }

// NewModelOn returns an empty ABox over the ontology stored in g, which
// must be empty: a new graph, or one Reset for reuse.
func NewModelOn(o *Ontology, g *rdf.Graph) *Model {
	return &Model{Ontology: o, Graph: g, nextID: make(map[string]int)}
}

// NewIndividual mints a fresh individual of the given class (by local name)
// with a deterministic sequential IRI such as pre:Goal_3, and asserts its
// type. Sequential naming keeps serialized models and test snapshots stable.
func (m *Model) NewIndividual(class string) rdf.Term {
	ind := m.Mint(class)
	m.Graph.AddSPO(ind, rdf.RDFType, m.Ontology.IRI(class))
	return ind
}

// Mint returns the IRI NewIndividual would mint for the class, and counts
// it, but asserts nothing: for callers that assert the type by ID.
func (m *Model) Mint(class string) rdf.Term {
	m.nextID[class]++
	return rdf.NewIRI(m.Ontology.Namespace + m.IDPrefix + class + "_" + strconv.Itoa(m.nextID[class]))
}

// NamedIndividual asserts an individual with an explicit local name and
// class, returning its IRI. Used for entities with natural keys: players,
// teams, matches, stadiums.
func (m *Model) NamedIndividual(name, class string) rdf.Term {
	ind := m.Ontology.IRI(name)
	m.Graph.AddSPO(ind, rdf.RDFType, m.Ontology.IRI(class))
	return ind
}

// Set asserts (ind, prop, value) with prop given by local name.
func (m *Model) Set(ind rdf.Term, prop string, value rdf.Term) {
	m.Graph.AddSPO(ind, m.Ontology.IRI(prop), value)
}

// SetString asserts a plain-literal property value.
func (m *Model) SetString(ind rdf.Term, prop, value string) {
	m.Set(ind, prop, rdf.NewLiteral(value))
}

// Clone deep-copies the model (sharing the immutable ontology).
func (m *Model) Clone() *Model {
	ids := make(map[string]int, len(m.nextID))
	for k, v := range m.nextID {
		ids[k] = v
	}
	return &Model{Ontology: m.Ontology, Graph: m.Graph.Clone(), IDPrefix: m.IDPrefix, nextID: ids}
}
