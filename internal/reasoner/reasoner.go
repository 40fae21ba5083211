// Package reasoner implements the description-logic inference services the
// paper obtains from Pellet (Section 3.5): classification, realization,
// property-hierarchy closure, domain/range type inference, restriction-based
// type inference and consistency checking.
//
// The soccer ontology lives in the fragment where saturation (computing the
// deductive closure by forward application of the schema axioms) is sound
// and complete, so Materialize produces exactly the entailed ABox a tableau
// reasoner would report. All reasoning runs offline over one per-match model
// at a time, matching the paper's scalability design: inference cost per
// game is independent of corpus size.
package reasoner

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/owl"
	"repro/internal/rdf"
)

// Reasoner answers TBox queries and materializes ABox entailments for a
// fixed ontology. Construction precomputes the class and property closures
// (classification), so a single Reasoner is shared across all matches.
type Reasoner struct {
	ont *owl.Ontology

	// classAnc maps each class to all its ancestors (not including itself).
	classAnc map[rdf.Term][]rdf.Term
	// propAnc maps each property to all its ancestor properties.
	propAnc map[rdf.Term][]rdf.Term
	// disjointClosed maps each class to the set of classes it is disjoint
	// with, including disjointness inherited from ancestors.
	disjointClosed map[rdf.Term]map[rdf.Term]bool

	// schema is the TBox as the saturation loop reads it.
	schema schema
}

// New classifies the ontology and returns a reasoner over it. The ontology
// must Validate() cleanly; New panics on a cyclic hierarchy because closure
// computation would not terminate meaningfully.
func New(ont *owl.Ontology) *Reasoner {
	if err := ont.Validate(); err != nil {
		panic(fmt.Sprintf("reasoner: invalid ontology: %v", err))
	}
	r := &Reasoner{
		ont:            ont,
		classAnc:       make(map[rdf.Term][]rdf.Term),
		propAnc:        make(map[rdf.Term][]rdf.Term),
		disjointClosed: make(map[rdf.Term]map[rdf.Term]bool),
	}
	for _, c := range ont.Classes() {
		r.classAnc[c.IRI] = closure(c.IRI, func(t rdf.Term) []rdf.Term {
			if cl := ont.ClassByIRI(t); cl != nil {
				return cl.Parents
			}
			return nil
		})
	}
	for _, p := range ont.Properties() {
		r.propAnc[p.IRI] = closure(p.IRI, func(t rdf.Term) []rdf.Term {
			if pr := ont.PropertyByIRI(t); pr != nil {
				return pr.Parents
			}
			return nil
		})
	}
	// Disjointness propagates down the hierarchy: if A ⊥ B then every
	// subclass of A is disjoint with every subclass of B. We close upward:
	// X ⊥ Y iff some ancestor-or-self of X is declared disjoint with some
	// ancestor-or-self of Y. Precompute the declared sets lifted to self.
	for _, c := range ont.Classes() {
		set := make(map[rdf.Term]bool)
		for _, a := range append([]rdf.Term{c.IRI}, r.classAnc[c.IRI]...) {
			for _, d := range ont.DisjointWith(a) {
				set[d] = true
			}
		}
		if len(set) > 0 {
			r.disjointClosed[c.IRI] = set
		}
	}
	r.schema = compileSchema(r)
	return r
}

// closure returns the transitive closure of parents(t), excluding t itself,
// in sorted order.
func closure(t rdf.Term, parents func(rdf.Term) []rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{t: true}
	var out []rdf.Term
	stack := append([]rdf.Term(nil), parents(t)...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, parents(n)...)
	}
	rdf.SortTerms(out)
	return out
}

// Ontology returns the classified ontology.
func (r *Reasoner) Ontology() *owl.Ontology { return r.ont }

// Ancestors returns all strict superclasses of the class.
func (r *Reasoner) Ancestors(class rdf.Term) []rdf.Term {
	return append([]rdf.Term(nil), r.classAnc[class]...)
}

// PropertyAncestors returns all strict super-properties of the property.
func (r *Reasoner) PropertyAncestors(prop rdf.Term) []rdf.Term {
	return append([]rdf.Term(nil), r.propAnc[prop]...)
}

// IsSubClassOf reports whether sub is equal to or a descendant of super.
func (r *Reasoner) IsSubClassOf(sub, super rdf.Term) bool {
	if sub == super {
		return true
	}
	for _, a := range r.classAnc[sub] {
		if a == super {
			return true
		}
	}
	return false
}

// SubClasses returns every strict descendant of the class, sorted. This is
// what the query-expansion baseline uses to expand "punishment" into
// "yellow card" and "red card".
func (r *Reasoner) SubClasses(super rdf.Term) []rdf.Term {
	var out []rdf.Term
	for _, c := range r.ont.Classes() {
		if c.IRI != super && r.IsSubClassOf(c.IRI, super) {
			out = append(out, c.IRI)
		}
	}
	rdf.SortTerms(out)
	return out
}

// AreDisjoint reports whether the two classes are disjoint, taking the
// hierarchy into account.
func (r *Reasoner) AreDisjoint(a, b rdf.Term) bool {
	bAll := append([]rdf.Term{b}, r.classAnc[b]...)
	if set := r.disjointClosed[a]; set != nil {
		for _, x := range bAll {
			if set[x] {
				return true
			}
		}
	}
	return false
}

// Materialize returns a new model containing the input assertions plus the
// deductive closure under the ontology: type closure along rdfs:subClassOf,
// statement closure along rdfs:subPropertyOf, domain and range type
// inference, and allValuesFrom type inference. The input model is not
// modified (the pipeline still needs the pre-inference state to build the
// FULL_EXT index).
func (r *Reasoner) Materialize(m *owl.Model) *owl.Model {
	out := m.Clone()
	r.Saturator(out.Graph).Run()
	return out
}

// DirectTypes realizes the individual: its most specific types, i.e. the
// asserted/inferred types with no other type below them, in term order.
func (r *Reasoner) DirectTypes(g *rdf.Graph, ind rdf.ID) []rdf.ID {
	typ, ok := g.Lookup(rdf.RDFType)
	if !ok {
		return nil
	}
	var all []rdf.ID
	for c := g.Scan(ind, typ, 0); c.Next(); {
		all = append(all, c.T.O)
	}
	var out []rdf.ID
	for _, c := range all {
		below := func(d rdf.ID) bool { return d != c && r.IsSubClassOf(g.Term(d), g.Term(c)) }
		if !slices.ContainsFunc(all, below) {
			out = append(out, c)
		}
	}
	g.SortIDs(out)
	return out
}

// Violation describes one consistency failure found by CheckConsistency.
type Violation struct {
	// Individual is the node the violation is about.
	Individual rdf.Term
	// Kind is one of "disjoint", "maxCardinality" or "functional".
	Kind string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (%s)", v.Kind, v.Individual.LocalName(), v.Detail)
}

// CheckConsistency reports every contradiction in the (ideally already
// materialized) model: individuals typed by disjoint classes, violated
// maxCardinality restrictions, and functional properties with multiple
// distinct values. An empty slice means the ABox is consistent. Run it on
// the Materialize output, since violations often only appear after closure
// (the paper's "only goalkeepers in the goalkeeping position" example
// requires the inferred types).
func (r *Reasoner) CheckConsistency(m *owl.Model) []Violation {
	var out []Violation
	g := m.Graph

	// Disjointness: collect each individual's types once.
	types := make(map[rdf.Term][]rdf.Term)
	for _, t := range g.Match(rdf.Wildcard, rdf.RDFType, rdf.Wildcard) {
		types[t.S] = append(types[t.S], t.O)
	}
	inds := make([]rdf.Term, 0, len(types))
	for ind := range types {
		inds = append(inds, ind)
	}
	rdf.SortTerms(inds)
	for _, ind := range inds {
		ts := types[ind]
		rdf.SortTerms(ts)
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if r.AreDisjoint(ts[i], ts[j]) {
					out = append(out, Violation{
						Individual: ind,
						Kind:       "disjoint",
						Detail:     fmt.Sprintf("typed both %s and %s", ts[i].LocalName(), ts[j].LocalName()),
					})
				}
			}
		}
	}

	// maxCardinality restrictions.
	for _, rest := range r.ont.Restrictions() {
		if rest.Kind != owl.MaxCardinality {
			continue
		}
		for _, ti := range g.Match(rdf.Wildcard, rdf.RDFType, rest.OnClass) {
			vals := g.Objects(ti.S, rest.OnProperty)
			if len(vals) > rest.Cardinality {
				out = append(out, Violation{
					Individual: ti.S,
					Kind:       "maxCardinality",
					Detail: fmt.Sprintf("%d values of %s, at most %d allowed",
						len(vals), rest.OnProperty.LocalName(), rest.Cardinality),
				})
			}
		}
	}

	// Functional properties.
	for _, p := range r.ont.Properties() {
		if !p.Functional {
			continue
		}
		counts := make(map[rdf.Term]int)
		for _, t := range g.Match(rdf.Wildcard, p.IRI, rdf.Wildcard) {
			counts[t.S]++
		}
		subjects := make([]rdf.Term, 0, len(counts))
		for s, n := range counts {
			if n > 1 {
				subjects = append(subjects, s)
			}
		}
		rdf.SortTerms(subjects)
		for _, s := range subjects {
			out = append(out, Violation{
				Individual: s,
				Kind:       "functional",
				Detail:     fmt.Sprintf("%d values of functional property %s", counts[s], p.IRI.LocalName()),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Individual != out[j].Individual {
			return out[i].Individual.Value < out[j].Individual.Value
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}
