package rdf

// Well-known vocabulary IRIs used across the system. Only the RDF, RDFS and
// OWL terms actually consumed by the ontology model, reasoner and rule
// engine are listed.
const (
	// RDF namespace.
	NSRDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	// RDFS namespace.
	NSRDFS = "http://www.w3.org/2000/01/rdf-schema#"
	// OWL namespace.
	NSOWL = "http://www.w3.org/2002/07/owl#"
	// NSSoccer is the namespace of the soccer domain ontology, mirroring the
	// "pre:" prefix of the paper's Jena rules.
	NSSoccer = "http://ceng.metu.edu.tr/soccer#"
)

// Frequently used property and class terms.
var (
	RDFType           = NewIRI(NSRDF + "type")
	RDFSSubClassOf    = NewIRI(NSRDFS + "subClassOf")
	RDFSSubPropertyOf = NewIRI(NSRDFS + "subPropertyOf")
	RDFSDomain        = NewIRI(NSRDFS + "domain")
	RDFSRange         = NewIRI(NSRDFS + "range")
	RDFSComment       = NewIRI(NSRDFS + "comment")
	OWLClass          = NewIRI(NSOWL + "Class")
	OWLObjectProperty = NewIRI(NSOWL + "ObjectProperty")
	OWLDataProperty   = NewIRI(NSOWL + "DatatypeProperty")
	OWLDisjointWith   = NewIRI(NSOWL + "disjointWith")
)

// Prefixes maps the short prefixes used by the Turtle writer and the rule
// parser to their namespaces.
var Prefixes = map[string]string{
	"rdf":  NSRDF,
	"rdfs": NSRDFS,
	"owl":  NSOWL,
	"pre":  NSSoccer,
	"xsd":  "http://www.w3.org/2001/XMLSchema#",
}

// ExpandQName expands a prefixed name such as "pre:Goal" against Prefixes.
// It returns the input unchanged (and false) when the prefix is unknown or
// the name has no colon.
func ExpandQName(qname string) (string, bool) {
	for i := 0; i < len(qname); i++ {
		if qname[i] == ':' {
			if ns, ok := Prefixes[qname[:i]]; ok {
				return ns + qname[i+1:], true
			}
			return qname, false
		}
	}
	return qname, false
}

// CompactIRI renders an IRI with a known prefix, falling back to <iri>.
func CompactIRI(iri string) string {
	for p, ns := range Prefixes {
		if len(iri) > len(ns) && iri[:len(ns)] == ns {
			local := iri[len(ns):]
			if isLocalName(local) {
				return p + ":" + local
			}
		}
	}
	return "<" + iri + ">"
}

func isLocalName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}
