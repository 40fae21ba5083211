package reasoner

import (
	"repro/internal/owl"
	"repro/internal/rdf"
)

// schema is the classified TBox compiled to integers. Every class and
// property has a schema index (rdf:type is index 0); each axiom the
// saturation applies is a list of indexes, so a pass over the ABox touches
// no Term and no map.
type schema struct {
	terms []rdf.Term
	// class[i] and prop[i] hold the axioms of schema term i as a class and
	// as a property; a term that is not one has the zero value.
	class []classAxioms
	prop  []propAxioms
}

type classAxioms struct {
	supers []int32 // strict superclasses
	// values are the allValuesFrom restrictions on this class.
	values []valueAxiom
}

type propAxioms struct {
	supers []int32 // strict super-properties
	// domain and rng are class indexes; 0 (rdf:type, never a class) means
	// none. rng is only set for object properties.
	domain, rng int32
	// values are the allValuesFrom restrictions on this property.
	values []valueAxiom
}

// valueAxiom is class ⊑ ∀prop.filler.
type valueAxiom struct {
	class, prop, filler int32
}

func compileSchema(r *Reasoner) schema {
	sc := schema{terms: []rdf.Term{rdf.RDFType}}
	index := map[rdf.Term]int32{rdf.RDFType: 0}
	idx := func(t rdf.Term) int32 {
		i, ok := index[t]
		if !ok {
			i = int32(len(sc.terms))
			index[t] = i
			sc.terms = append(sc.terms, t)
		}
		return i
	}
	indexes := func(ts []rdf.Term) []int32 {
		out := make([]int32, len(ts))
		for i, t := range ts {
			out[i] = idx(t)
		}
		return out
	}
	// Number everything first so the axiom tables can be sized once.
	for _, c := range r.ont.Classes() {
		idx(c.IRI)
	}
	props := r.ont.Properties()
	for _, p := range props {
		idx(p.IRI)
	}
	sc.class = make([]classAxioms, len(sc.terms))
	sc.prop = make([]propAxioms, len(sc.terms))
	for _, c := range r.ont.Classes() {
		sc.class[idx(c.IRI)].supers = indexes(r.classAnc[c.IRI])
	}
	for _, p := range props {
		ax := &sc.prop[idx(p.IRI)]
		ax.supers = indexes(r.propAnc[p.IRI])
		if !p.Domain.IsZero() {
			ax.domain = idx(p.Domain)
		}
		if p.Kind == owl.ObjectProperty && !p.Range.IsZero() {
			ax.rng = idx(p.Range)
		}
	}
	for _, rest := range r.ont.Restrictions() {
		if rest.Kind != owl.AllValuesFrom {
			continue
		}
		v := valueAxiom{class: idx(rest.OnClass), prop: idx(rest.OnProperty), filler: idx(rest.Filler)}
		sc.class[v.class].values = append(sc.class[v.class].values, v)
		sc.prop[v.prop].values = append(sc.prop[v.prop].values, v)
	}
	return sc
}

// derivation records one saturation step that added a triple: the rule,
// the schema indexes of the axiom's terms and the one or two ABox premises
// consumed (an unused second premise is the zero triple).
type derivation struct {
	conclusion rdf.IDTriple
	rule       string
	axiom      [3]int32
	premises   [2]rdf.IDTriple
}

// step is the derivation of a one-premise axiom over schema terms a and b.
func step(rule string, a, b int32, premise rdf.IDTriple) derivation {
	return derivation{rule: rule, axiom: [3]int32{a, b}, premises: [2]rdf.IDTriple{premise}}
}

// Saturator closes one graph under the reasoner's ontology, incrementally:
// each Run applies the axioms only to the triples logged since the
// previous Run, which is how inference alternates it with the rule engine
// on one graph without re-deriving the closure every round.
type Saturator struct {
	sc *schema
	g  *rdf.Graph
	// ids maps schema index to the graph's ID; index maps a graph ID back
	// to schema index+1 (0 for ABox terms, including every term the graph
	// gained after the Saturator was made).
	ids   []rdf.ID
	index []int32
	// next is the log offset of the first triple not yet processed.
	next int
	// explain, when set, receives every derivation that added a triple.
	explain func(derivation)
}

// Saturator binds the schema to g's dictionary. The graph gains every
// schema term as a dictionary entry, but no triple, until Run.
func (r *Reasoner) Saturator(g *rdf.Graph) *Saturator {
	s := &Saturator{sc: &r.schema, g: g, ids: make([]rdf.ID, len(r.schema.terms))}
	for i, t := range r.schema.terms {
		s.ids[i] = g.Intern(t)
	}
	s.index = make([]int32, g.NumTerms()+1)
	for i, id := range s.ids {
		s.index[id] = int32(i) + 1
	}
	return s
}

// schemaIndex returns the schema index of a graph term, or -1.
func (s *Saturator) schemaIndex(id rdf.ID) int32 {
	if int(id) >= len(s.index) {
		return -1
	}
	return s.index[id] - 1
}

func (s *Saturator) isLiteral(id rdf.ID) bool { return s.g.Term(id).IsLiteral() }

// add adds a derived triple and reports whether it was new and an explain
// hook waits for its derivation, which the caller then builds and hands to
// explained: a saturation without the hook builds none.
func (s *Saturator) add(subj, pred, obj rdf.ID) bool {
	return s.g.AddIDs(subj, pred, obj) && s.explain != nil
}

// explained hands the explain hook d, the derivation of the triple add
// just added.
func (s *Saturator) explained(d derivation) {
	d.conclusion = s.g.At(s.g.LogLen() - 1)
	s.explain(d)
}

// Run saturates the graph to fixpoint: type closure along the class
// hierarchy, statement closure along the property hierarchy, domain and
// range typing, and allValuesFrom typing. It is a worklist over the
// graph's insertion log — every triple, asserted or derived, is visited
// once as the newest premise of each axiom it can feed, and what it
// derives is appended behind it — so one call reaches the fixpoint and a
// later call resumes where this one stopped.
func (s *Saturator) Run() {
	typ := s.ids[0]
	for ; s.next < s.g.LogLen(); s.next++ {
		t := s.g.At(s.next)
		if c := s.schemaIndex(t.O); t.P == typ && c >= 0 {
			ax := &s.sc.class[c]
			for _, sup := range ax.supers {
				if s.add(t.S, typ, s.ids[sup]) {
					s.explained(step("subClassOf", c, sup, t))
				}
			}
			// i : C joins the (i p v) already present; later ones find
			// this triple from the property side below.
			for _, v := range ax.values {
				for vals := s.g.Scan(t.S, s.ids[v.prop], 0); vals.Next(); {
					s.deriveFiller(v, t, vals.T)
				}
			}
		}
		p := s.schemaIndex(t.P)
		if p < 0 {
			continue
		}
		ax := &s.sc.prop[p]
		for _, sup := range ax.supers {
			if s.add(t.S, s.ids[sup], t.O) {
				s.explained(step("subPropertyOf", p, sup, t))
			}
		}
		if ax.domain != 0 && s.add(t.S, typ, s.ids[ax.domain]) {
			s.explained(step("domain", p, ax.domain, t))
		}
		if ax.rng != 0 && !s.isLiteral(t.O) && s.add(t.O, typ, s.ids[ax.rng]) {
			s.explained(step("range", p, ax.rng, t))
		}
		for _, v := range ax.values {
			if s.g.HasIDs(t.S, typ, s.ids[v.class]) {
				s.deriveFiller(v, rdf.IDTriple{S: t.S, P: typ, O: s.ids[v.class]}, t)
			}
		}
	}
}

// deriveFiller applies C ⊑ ∀p.F to the premises (i : C) and (i p v).
func (s *Saturator) deriveFiller(v valueAxiom, typed, value rdf.IDTriple) {
	if s.isLiteral(value.O) {
		return
	}
	if s.add(value.O, s.ids[0], s.ids[v.filler]) {
		s.explained(derivation{
			rule: "allValuesFrom", axiom: [3]int32{v.class, v.prop, v.filler},
			premises: [2]rdf.IDTriple{typed, value}})
	}
}
