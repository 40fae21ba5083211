// Package rdf implements the minimal RDF data model the retrieval system is
// built on: terms (IRIs, blank nodes, literals), triples, indexed in-memory
// graphs and a Turtle-subset serialization used to persist per-match models.
//
// The paper stores extracted and inferred knowledge in OWL files manipulated
// through Jena; this package is the substrate standing in for Jena's Model
// API. It is deliberately small: only the features exercised by the ontology,
// reasoner, rule engine and population modules are present.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI identifies a resource, e.g. a class, property or individual.
	IRI TermKind = iota
	// Blank is an anonymous node, used by makeTemp in the rule engine.
	Blank
	// Literal is a data value with an optional language tag or datatype.
	Literal
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Blank:
		return "blank"
	case Literal:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Well-known datatype IRIs (XML Schema).
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Term is an RDF term. Terms are plain comparable values: two terms are the
// same node iff their struct fields are equal, so they can key Go maps
// directly. A Graph numbers each distinct Term once and stores and indexes
// the numbers (see ID).
type Term struct {
	Kind TermKind
	// Value is the IRI string for IRI terms, the label for blank nodes and
	// the lexical form for literals.
	Value string
	// Lang is the language tag of a language-tagged literal ("" otherwise).
	Lang string
	// Datatype is the datatype IRI of a typed literal ("" for plain ones).
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain string literal.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewLangLiteral returns a language-tagged literal, e.g. a Turkish narration.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewInt returns an xsd:integer literal.
func NewInt(v int) Term {
	return Term{Kind: Literal, Value: strconv.Itoa(v), Datatype: XSDInteger}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsZero reports whether the term is the zero value, which no valid RDF term
// is (an IRI with an empty value is not produced by this package).
func (t Term) IsZero() bool { return t == Term{} }

// Int parses the literal as an integer. It returns false when the term is
// not a literal or the whole lexical form is not an integer — "2009-03-04"
// must not half-parse as 2009, or date filters would silently compare
// years.
func (t Term) Int() (int, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	v, err := strconv.Atoi(t.Value)
	if err != nil {
		return 0, false
	}
	return v, true
}

// LocalName returns the fragment or last path segment of an IRI, the label
// of a blank node, and the lexical form of a literal. It is what the
// semantic indexer tokenizes when it turns ontology terms into index text.
func (t Term) LocalName() string {
	if t.Kind != IRI {
		return t.Value
	}
	if i := strings.LastIndexByte(t.Value, '#'); i >= 0 {
		return t.Value[i+1:]
	}
	if i := strings.LastIndexByte(t.Value, '/'); i >= 0 {
		return t.Value[i+1:]
	}
	return t.Value
}

// String renders the term in N-Triples-like syntax, for debugging and for
// the Turtle writer.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	}
}

func escapeLiteral(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	return r.Replace(s)
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple is a convenience constructor.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples-like syntax.
func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String() + " ."
}
