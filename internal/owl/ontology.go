// Package owl provides the ontology model the retrieval system is built
// around: named classes with a subsumption hierarchy, object and data
// properties with their own hierarchy, domains, ranges, disjointness axioms
// and the two kinds of OWL restrictions the paper uses (value constraints
// and cardinality constraints).
//
// The model is deliberately the OWL-DL fragment exercised by the soccer
// ontology of Section 3.2 rather than the whole OWL 2 specification: that is
// the fragment Pellet is asked to reason over in the paper, and it is what
// internal/reasoner implements sound and complete saturation for.
package owl

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// Class is a named concept in the ontology.
type Class struct {
	// IRI identifies the class.
	IRI rdf.Term
	// Parents are the direct named superclasses.
	Parents []rdf.Term
	// Label is an optional human-readable label (defaults to the local name).
	Label string
	// Comment documents the class.
	Comment string
}

// PropertyKind distinguishes object properties from data properties.
type PropertyKind uint8

const (
	// ObjectProperty relates individuals to individuals.
	ObjectProperty PropertyKind = iota
	// DataProperty relates individuals to literal values.
	DataProperty
)

// Property is a named object or data property.
type Property struct {
	IRI  rdf.Term
	Kind PropertyKind
	// Parents are the direct super-properties; the paper's generic
	// subjectPlayer/objectPlayer properties sit at the top of this hierarchy.
	Parents []rdf.Term
	// Domain restricts the class of subjects ("" zero Term = unrestricted).
	Domain rdf.Term
	// Range restricts the class of objects for object properties, or the
	// datatype IRI for data properties.
	Range rdf.Term
	// Functional marks properties with at most one value per subject.
	Functional bool
	Comment    string
}

// RestrictionKind enumerates the OWL restriction constructs of Section 3.5.
type RestrictionKind uint8

const (
	// AllValuesFrom is the value constraint: every value of the property on
	// instances of the class belongs to the filler class (e.g. only
	// goalkeepers are allowed in the goalkeeping position).
	AllValuesFrom RestrictionKind = iota
	// SomeValuesFrom requires at least one value from the filler class.
	SomeValuesFrom
	// MaxCardinality bounds the number of distinct values (e.g. only one
	// goalkeeper is allowed in the game).
	MaxCardinality
	// MinCardinality requires a minimum number of distinct values.
	MinCardinality
)

// String names the restriction kind.
func (k RestrictionKind) String() string {
	switch k {
	case AllValuesFrom:
		return "allValuesFrom"
	case SomeValuesFrom:
		return "someValuesFrom"
	case MaxCardinality:
		return "maxCardinality"
	case MinCardinality:
		return "minCardinality"
	default:
		return fmt.Sprintf("RestrictionKind(%d)", uint8(k))
	}
}

// Restriction constrains a property on a class.
type Restriction struct {
	// OnClass is the class whose instances the restriction applies to.
	OnClass rdf.Term
	// OnProperty is the restricted property.
	OnProperty rdf.Term
	Kind       RestrictionKind
	// Filler is the filler class for the *ValuesFrom kinds.
	Filler rdf.Term
	// Cardinality is the bound for the *Cardinality kinds.
	Cardinality int
}

// Ontology is a mutable TBox: classes, properties, restrictions and
// disjointness axioms.
type Ontology struct {
	// Namespace prefixes every short name passed to the builder methods.
	Namespace string

	classes      map[rdf.Term]*Class
	properties   map[rdf.Term]*Property
	restrictions []Restriction
	disjoint     map[rdf.Term][]rdf.Term
	order        []rdf.Term // class insertion order, for deterministic dumps
	propOrder    []rdf.Term
	// declared maps the local name of every declared class and property to
	// its IRI, so the per-triple IRI calls of ABox population do not build
	// the same strings again for every match.
	declared map[string]rdf.Term
}

// New returns an empty ontology whose builder methods mint IRIs in the given
// namespace.
func New(namespace string) *Ontology {
	return &Ontology{
		Namespace:  namespace,
		classes:    make(map[rdf.Term]*Class),
		properties: make(map[rdf.Term]*Property),
		disjoint:   make(map[rdf.Term][]rdf.Term),
		declared:   make(map[string]rdf.Term),
	}
}

// IRI mints a term in the ontology namespace.
func (o *Ontology) IRI(local string) rdf.Term {
	if t, ok := o.declared[local]; ok {
		return t
	}
	return rdf.NewIRI(o.Namespace + local)
}

// AddClass declares a class with the given local name and direct parent
// local names. Re-declaring a class merges the parent lists.
func (o *Ontology) AddClass(name string, parents ...string) *Class {
	iri := o.IRI(name)
	c, ok := o.classes[iri]
	if !ok {
		c = &Class{IRI: iri, Label: name}
		o.classes[iri] = c
		o.declared[name] = iri
		o.order = append(o.order, iri)
	}
	for _, p := range parents {
		piri := o.IRI(p)
		if !containsTerm(c.Parents, piri) {
			c.Parents = append(c.Parents, piri)
		}
	}
	return c
}

// AddObjectProperty declares an object property with optional direct
// super-properties.
func (o *Ontology) AddObjectProperty(name string, parents ...string) *Property {
	return o.addProperty(name, ObjectProperty, parents)
}

// AddDataProperty declares a data property with optional direct
// super-properties.
func (o *Ontology) AddDataProperty(name string, parents ...string) *Property {
	return o.addProperty(name, DataProperty, parents)
}

func (o *Ontology) addProperty(name string, kind PropertyKind, parents []string) *Property {
	iri := o.IRI(name)
	p, ok := o.properties[iri]
	if !ok {
		p = &Property{IRI: iri, Kind: kind}
		o.properties[iri] = p
		o.declared[name] = iri
		o.propOrder = append(o.propOrder, iri)
	}
	for _, par := range parents {
		piri := o.IRI(par)
		if !containsTerm(p.Parents, piri) {
			p.Parents = append(p.Parents, piri)
		}
	}
	return p
}

// SetDomain sets the domain class of a property (by local names).
func (o *Ontology) SetDomain(prop, class string) {
	if p := o.properties[o.IRI(prop)]; p != nil {
		p.Domain = o.IRI(class)
	}
}

// SetRange sets the range of a property. For data properties pass a full
// datatype IRI via SetRangeIRI instead.
func (o *Ontology) SetRange(prop, class string) {
	if p := o.properties[o.IRI(prop)]; p != nil {
		p.Range = o.IRI(class)
	}
}

// SetRangeIRI sets the range of a property to an arbitrary IRI, typically an
// XSD datatype for data properties.
func (o *Ontology) SetRangeIRI(prop string, iri rdf.Term) {
	if p := o.properties[o.IRI(prop)]; p != nil {
		p.Range = iri
	}
}

// SetFunctional marks a property functional.
func (o *Ontology) SetFunctional(prop string) {
	if p := o.properties[o.IRI(prop)]; p != nil {
		p.Functional = true
	}
}

// AddDisjoint declares two classes disjoint (symmetric).
func (o *Ontology) AddDisjoint(a, b string) {
	ai, bi := o.IRI(a), o.IRI(b)
	if !containsTerm(o.disjoint[ai], bi) {
		o.disjoint[ai] = append(o.disjoint[ai], bi)
	}
	if !containsTerm(o.disjoint[bi], ai) {
		o.disjoint[bi] = append(o.disjoint[bi], ai)
	}
}

// AddRestriction records a restriction axiom.
func (o *Ontology) AddRestriction(r Restriction) { o.restrictions = append(o.restrictions, r) }

// ValueConstraint is shorthand for an AllValuesFrom restriction by local names.
func (o *Ontology) ValueConstraint(onClass, onProperty, filler string) {
	o.AddRestriction(Restriction{
		OnClass:    o.IRI(onClass),
		OnProperty: o.IRI(onProperty),
		Kind:       AllValuesFrom,
		Filler:     o.IRI(filler),
	})
}

// MaxCardinalityConstraint is shorthand for a MaxCardinality restriction.
func (o *Ontology) MaxCardinalityConstraint(onClass, onProperty string, n int) {
	o.AddRestriction(Restriction{
		OnClass:     o.IRI(onClass),
		OnProperty:  o.IRI(onProperty),
		Kind:        MaxCardinality,
		Cardinality: n,
	})
}

// ClassByIRI returns the class with the given IRI, or nil.
func (o *Ontology) ClassByIRI(iri rdf.Term) *Class { return o.classes[iri] }

// Property returns the property declared under the local name, or nil.
func (o *Ontology) Property(name string) *Property { return o.properties[o.IRI(name)] }

// PropertyByIRI returns the property with the given IRI, or nil.
func (o *Ontology) PropertyByIRI(iri rdf.Term) *Property { return o.properties[iri] }

// Classes returns all classes in declaration order.
func (o *Ontology) Classes() []*Class {
	out := make([]*Class, 0, len(o.order))
	for _, iri := range o.order {
		out = append(out, o.classes[iri])
	}
	return out
}

// Properties returns all properties in declaration order.
func (o *Ontology) Properties() []*Property {
	out := make([]*Property, 0, len(o.propOrder))
	for _, iri := range o.propOrder {
		out = append(out, o.properties[iri])
	}
	return out
}

// Restrictions returns all restriction axioms.
func (o *Ontology) Restrictions() []Restriction { return o.restrictions }

// DisjointWith returns the classes declared disjoint with the given class.
func (o *Ontology) DisjointWith(iri rdf.Term) []rdf.Term {
	out := append([]rdf.Term(nil), o.disjoint[iri]...)
	rdf.SortTerms(out)
	return out
}

// DirectSubClasses returns the classes whose direct parent list contains c,
// sorted for determinism.
func (o *Ontology) DirectSubClasses(c rdf.Term) []rdf.Term {
	var out []rdf.Term
	for _, iri := range o.order {
		if containsTerm(o.classes[iri].Parents, c) {
			out = append(out, iri)
		}
	}
	rdf.SortTerms(out)
	return out
}

// Roots returns the classes with no declared parents, sorted.
func (o *Ontology) Roots() []rdf.Term {
	var out []rdf.Term
	for _, iri := range o.order {
		if len(o.classes[iri].Parents) == 0 {
			out = append(out, iri)
		}
	}
	rdf.SortTerms(out)
	return out
}

// Validate checks referential integrity: every parent, domain, range,
// restriction class/property and disjointness operand must be declared, and
// the class and property hierarchies must be acyclic. A nil error means the
// ontology is structurally well-formed (consistency of an ABox against it is
// the reasoner's job).
func (o *Ontology) Validate() error {
	for _, c := range o.Classes() {
		for _, p := range c.Parents {
			if _, ok := o.classes[p]; !ok {
				return fmt.Errorf("owl: class %s has undeclared parent %s", c.IRI.LocalName(), p.LocalName())
			}
		}
	}
	for _, p := range o.Properties() {
		for _, par := range p.Parents {
			pp, ok := o.properties[par]
			if !ok {
				return fmt.Errorf("owl: property %s has undeclared parent %s", p.IRI.LocalName(), par.LocalName())
			}
			if pp.Kind != p.Kind {
				return fmt.Errorf("owl: property %s and parent %s have different kinds", p.IRI.LocalName(), par.LocalName())
			}
		}
		if !p.Domain.IsZero() {
			if _, ok := o.classes[p.Domain]; !ok {
				return fmt.Errorf("owl: property %s has undeclared domain %s", p.IRI.LocalName(), p.Domain.LocalName())
			}
		}
		if p.Kind == ObjectProperty && !p.Range.IsZero() {
			if _, ok := o.classes[p.Range]; !ok {
				return fmt.Errorf("owl: property %s has undeclared range %s", p.IRI.LocalName(), p.Range.LocalName())
			}
		}
	}
	for _, r := range o.restrictions {
		if _, ok := o.classes[r.OnClass]; !ok {
			return fmt.Errorf("owl: restriction on undeclared class %s", r.OnClass.LocalName())
		}
		if _, ok := o.properties[r.OnProperty]; !ok {
			return fmt.Errorf("owl: restriction on undeclared property %s", r.OnProperty.LocalName())
		}
		if (r.Kind == AllValuesFrom || r.Kind == SomeValuesFrom) && o.classes[r.Filler] == nil {
			return fmt.Errorf("owl: restriction filler %s undeclared", r.Filler.LocalName())
		}
		if (r.Kind == MaxCardinality || r.Kind == MinCardinality) && r.Cardinality < 0 {
			return fmt.Errorf("owl: negative cardinality on %s", r.OnProperty.LocalName())
		}
	}
	for a, bs := range o.disjoint {
		if _, ok := o.classes[a]; !ok {
			return fmt.Errorf("owl: disjointness on undeclared class %s", a.LocalName())
		}
		for _, b := range bs {
			if _, ok := o.classes[b]; !ok {
				return fmt.Errorf("owl: disjointness with undeclared class %s", b.LocalName())
			}
		}
	}
	if cyc := o.findClassCycle(); cyc != "" {
		return fmt.Errorf("owl: class hierarchy cycle through %s", cyc)
	}
	if cyc := o.findPropertyCycle(); cyc != "" {
		return fmt.Errorf("owl: property hierarchy cycle through %s", cyc)
	}
	return nil
}

func (o *Ontology) findClassCycle() string {
	return findCycle(o.order, func(t rdf.Term) []rdf.Term { return o.classes[t].Parents })
}

func (o *Ontology) findPropertyCycle() string {
	return findCycle(o.propOrder, func(t rdf.Term) []rdf.Term { return o.properties[t].Parents })
}

func findCycle(nodes []rdf.Term, parents func(rdf.Term) []rdf.Term) string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[rdf.Term]int, len(nodes))
	var visit func(rdf.Term) string
	visit = func(n rdf.Term) string {
		switch color[n] {
		case gray:
			return n.LocalName()
		case black:
			return ""
		}
		color[n] = gray
		for _, p := range parents(n) {
			if c := visit(p); c != "" {
				return c
			}
		}
		color[n] = black
		return ""
	}
	for _, n := range nodes {
		if c := visit(n); c != "" {
			return c
		}
	}
	return ""
}

// TBoxGraph emits the ontology as RDF triples (declarations, subsumptions,
// domains, ranges and disjointness). Restrictions are not reified into RDF;
// the reasoner consumes them from the Ontology value directly.
func (o *Ontology) TBoxGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for _, c := range o.Classes() {
		g.AddSPO(c.IRI, rdf.RDFType, rdf.OWLClass)
		for _, p := range c.Parents {
			g.AddSPO(c.IRI, rdf.RDFSSubClassOf, p)
		}
		if c.Comment != "" {
			g.AddSPO(c.IRI, rdf.RDFSComment, rdf.NewLiteral(c.Comment))
		}
	}
	for _, p := range o.Properties() {
		kind := rdf.OWLObjectProperty
		if p.Kind == DataProperty {
			kind = rdf.OWLDataProperty
		}
		g.AddSPO(p.IRI, rdf.RDFType, kind)
		for _, par := range p.Parents {
			g.AddSPO(p.IRI, rdf.RDFSSubPropertyOf, par)
		}
		if !p.Domain.IsZero() {
			g.AddSPO(p.IRI, rdf.RDFSDomain, p.Domain)
		}
		if !p.Range.IsZero() {
			g.AddSPO(p.IRI, rdf.RDFSRange, p.Range)
		}
	}
	for a, bs := range o.disjoint {
		for _, b := range bs {
			g.AddSPO(a, rdf.OWLDisjointWith, b)
		}
	}
	return g
}

// Stats summarizes the ontology size, matching the paper's "79 concepts and
// 95 properties" report for the soccer ontology.
type Stats struct {
	Classes          int
	ObjectProperties int
	DataProperties   int
	Restrictions     int
	DisjointPairs    int
}

// Stats computes the ontology size summary.
func (o *Ontology) Stats() Stats {
	s := Stats{Classes: len(o.classes), Restrictions: len(o.restrictions)}
	for _, p := range o.properties {
		if p.Kind == ObjectProperty {
			s.ObjectProperties++
		} else {
			s.DataProperties++
		}
	}
	pairs := 0
	for _, bs := range o.disjoint {
		pairs += len(bs)
	}
	s.DisjointPairs = pairs / 2
	return s
}

// Properties total.
func (s Stats) Properties() int { return s.ObjectProperties + s.DataProperties }

// HierarchyString renders the class hierarchy as an indented tree in the
// style of the paper's Fig. 2, for cmd/socontology and documentation.
func (o *Ontology) HierarchyString() string {
	var b []byte
	var walk func(c rdf.Term, depth int)
	walk = func(c rdf.Term, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, "  "...)
		}
		b = append(b, c.LocalName()...)
		b = append(b, '\n')
		for _, sub := range o.DirectSubClasses(c) {
			walk(sub, depth+1)
		}
	}
	roots := o.Roots()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Value < roots[j].Value })
	for _, r := range roots {
		walk(r, 0)
	}
	return string(b)
}

func containsTerm(ts []rdf.Term, t rdf.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}
