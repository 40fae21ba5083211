package index

// Field is one named, analyzed region of a document. In the semantic index
// of Section 3.6.1 fields carry the ontological slots of an event (event
// type, subject player, narration, ...), each with its own boost.
type Field struct {
	// Name identifies the field ("event", "narration", ...).
	Name string
	// Text is the raw field value; it is analyzed at indexing time and kept
	// verbatim as the stored value.
	Text string
	// Boost scales the score contribution of matches in this field.
	// Zero means 1.0.
	Boost float64
}

// Document is an ordered set of fields. The semantic index stores one
// document per soccer event.
type Document struct {
	Fields []Field
}

// Add appends a field with the default boost and returns the document for
// chaining.
func (d *Document) Add(name, text string) *Document {
	d.Fields = append(d.Fields, Field{Name: name, Text: text})
	return d
}

// AddBoosted appends a field with an explicit boost.
func (d *Document) AddBoosted(name, text string, boost float64) *Document {
	d.Fields = append(d.Fields, Field{Name: name, Text: text, Boost: boost})
	return d
}

// Get returns the concatenation of the stored values of the named field
// ("" when absent, and on a nil Document: a hit whose document is gone).
// Multi-valued fields are space-joined.
func (d *Document) Get(name string) string {
	if d == nil {
		return ""
	}
	out := ""
	for _, f := range d.Fields {
		if f.Name != name {
			continue
		}
		if out == "" {
			out = f.Text
		} else {
			out += " " + f.Text
		}
	}
	return out
}
