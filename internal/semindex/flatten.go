package semindex

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/populate"
	"repro/internal/rdf"
	"repro/internal/rules"
)

// predicateRole says how the flattening step treats a predicate: which of
// the four generic role fields its values feed, and whether it is plumbing.
type predicateRole uint8

const (
	roleSubjPlayer predicateRole = 1 << iota
	roleObjPlayer
	roleSubjTeam
	roleObjTeam
	// rolePlumbing marks inMatch and inMinute, which reach the index
	// through the context fields.
	rolePlumbing
)

var genericRoles = [...]struct {
	property string
	role     predicateRole
}{
	{"subjectPlayer", roleSubjPlayer},
	{"objectPlayer", roleObjPlayer},
	{"subjectTeam", roleSubjTeam},
	{"objectTeam", roleObjTeam},
}

// vocabText is what flattening reads of an ontology term that does not
// depend on the page: its role as a predicate, its local name, that name
// camel-split, and the camel-split rest of an actorOf* property's name
// ("" for other terms).
type vocabText struct {
	role               predicateRole
	local, text, actor string
}

// vocabulary derives the text of every ontology class and property once
// per Builder, and classifies each property: a property feeds a generic
// role when it is that role or one of its sub-properties. Reading through
// the property hierarchy is TBox knowledge (the index schema), not ABox
// inference, which is why the pre-inference FULL_EXT index still fills
// subjectPlayer from scorerPlayer assertions — exactly the paper's Table
// 1. The table is immutable once built.
func (b *Builder) vocabulary() map[rdf.Term]*vocabText {
	b.vocabOnce.Do(func() {
		b.vocab = map[rdf.Term]*vocabText{}
		for _, c := range b.Ontology.Classes() {
			b.vocab[c.IRI] = newVocabText(c.IRI)
		}
		for _, p := range b.Ontology.Properties() {
			v := newVocabText(p.IRI)
			lineage := append(b.Reasoner.PropertyAncestors(p.IRI), p.IRI)
			for _, gr := range genericRoles {
				generic := b.Ontology.IRI(gr.property)
				for _, anc := range lineage {
					if anc == generic {
						v.role |= gr.role
					}
				}
			}
			b.vocab[p.IRI] = v
		}
		for _, plumbing := range []string{"inMatch", "inMinute"} {
			t := b.Ontology.IRI(plumbing)
			if b.vocab[t] == nil {
				b.vocab[t] = newVocabText(t)
			}
			b.vocab[t].role |= rolePlumbing
		}
	})
	return b.vocab
}

func newVocabText(t rdf.Term) *vocabText {
	v := &vocabText{local: t.LocalName()}
	v.text = CamelSplit(v.local)
	if strings.HasPrefix(t.Value, rdf.NSSoccer+"actorOf") {
		v.actor = CamelSplit(strings.TrimPrefix(v.local, "actorOf"))
	}
	return v
}

// vocabText returns the term's text, from the Builder's table when the
// term is in the ontology.
func (f *flattener) vocabText(t rdf.Term) *vocabText {
	if v := f.b.vocabulary()[t]; v != nil {
		return v
	}
	return newVocabText(t)
}

// flattener turns the event individuals of one match model into index
// documents following the structure of Tables 1 and 2. It reads the graph
// by ID and caches, per page, everything it reads of a term — a
// predicate's role and text, a class's text, an individual's display
// name, a player's type text — since the same few hundred terms recur
// across the page's events. A flattener is reused from page to page
// through the Builder's pool: an entry of a cache is the page's only when
// its gen is the flattener's.
type flattener struct {
	b     *Builder
	level Level
	page  *crawler.MatchPage
	g     *rdf.Graph
	gen   uint64

	typ, hasName, narration rdf.ID
	// rules is the engine that saturated the graph, whose Asserted is the
	// rule provenance; nil below FULL_INF.
	rules *rules.Engine

	// Caches indexed by term ID, filled on first use.
	preds   []predicateText
	classes []classText
	names   []displayName
	// players caches the type text of the players the page's events name.
	players []typeText

	// typeTexts holds the event field text of each type set seen on the
	// page, keyed by the set's IDs in little-endian bytes.
	typeTexts map[string]string

	// Scratch buffers reused from one event to the next.
	key                []byte
	types, playerTypes []rdf.ID
	roles              [len(genericRoles)][]rdf.ID
	values             [len(genericRoles)][]string
	words              []string
	triples            []rdf.IDTriple
	parts              parts
}

type predicateText struct {
	gen  uint64
	role predicateRole
	// text is the camel-split local name; actor is the camel-split rest of
	// an actorOf* property's local name ("" for other predicates).
	text, actor string
}

type classText struct {
	gen uint64
	// local is the class's local name and text its camel-split form; both
	// are empty for types outside the soccer namespace, which are not
	// indexed.
	local, text string
}

type displayName struct {
	gen uint64
	// named reports a hasName value; text falls back to the IRI local name
	// with underscores opened up.
	named bool
	text  string
}

// typeText is an individual's types as index text: the distinct non-empty
// class texts in term order, and the same joined.
type typeText struct {
	gen   uint64
	parts []string
	text  string
}

// reset readies f for one page's graph, saturated by eng (nil below
// FULL_INF), forgetting what its caches hold of the page before.
func (f *flattener) reset(b *Builder, level Level, page *crawler.MatchPage, g *rdf.Graph, eng *rules.Engine) {
	f.b, f.level, f.page, f.g, f.rules = b, level, page, g, eng
	if f.typeTexts == nil {
		f.typeTexts = make(map[string]string)
	}
	clear(f.typeTexts)
	f.gen++
	f.typ = g.Intern(rdf.RDFType)
	f.hasName = g.Intern(b.Ontology.IRI("hasName"))
	f.narration = g.Intern(b.Ontology.IRI("narration"))
	n := g.NumTerms() + 1
	f.preds = grownTo(f.preds, n)
	f.classes = grownTo(f.classes, n)
	f.names = grownTo(f.names, n)
	f.players = grownTo(f.players, n)
}

// grownTo returns s with length at least n, its new entries zero.
func grownTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

func (f *flattener) pred(id rdf.ID) *predicateText {
	p := &f.preds[id]
	if p.gen != f.gen {
		v := f.vocabText(f.g.Term(id))
		*p = predicateText{gen: f.gen, role: v.role, text: v.text, actor: v.actor}
	}
	return p
}

func (f *flattener) class(id rdf.ID) *classText {
	c := &f.classes[id]
	if c.gen != f.gen {
		*c = classText{gen: f.gen}
		if t := f.g.Term(id); strings.HasPrefix(t.Value, rdf.NSSoccer) {
			v := f.vocabText(t)
			c.local, c.text = v.local, v.text
		}
	}
	return c
}

// name maps an individual to its hasName value (falling back to the IRI
// local name with underscores opened up).
func (f *flattener) name(id rdf.ID) *displayName {
	n := &f.names[id]
	if n.gen != f.gen {
		*n = displayName{gen: f.gen}
		if v := f.g.FirstObjectID(id, f.hasName); v != 0 {
			n.named, n.text = true, f.g.Term(v).Value
		} else {
			n.text = strings.ReplaceAll(f.g.Term(id).LocalName(), "_", " ")
		}
	}
	return n
}

// player returns the player's type text, computed on first use.
func (f *flattener) player(id rdf.ID) *typeText {
	t := &f.players[id]
	if t.gen != f.gen {
		out := parts{list: t.parts[:0]}
		f.playerTypes = f.sortedTypes(f.playerTypes[:0], id)
		for _, c := range f.playerTypes {
			out.add(f.class(c).text)
		}
		*t = typeText{gen: f.gen, parts: out.list, text: out.String()}
	}
	return t
}

func (f *flattener) appendNames(dst []string, inds []rdf.ID) []string {
	for _, ind := range inds {
		dst = append(dst, f.name(ind).text)
	}
	return dst
}

// sortedTypes appends the individual's types to dst, sorted in term order.
func (f *flattener) sortedTypes(dst []rdf.ID, ind rdf.ID) []rdf.ID {
	for c := f.g.Scan(ind, f.typ, 0); c.Next(); {
		dst = append(dst, c.T.O)
	}
	f.g.SortIDs(dst)
	return dst
}

// fieldsPerDoc counts the fields eventDocument writes at the page's level.
func (f *flattener) fieldsPerDoc() int {
	n := 18 // event, match, two teams, date, minute, four roles, eight stored-only
	if !f.b.DisableNarrationField {
		n++
	}
	if f.level == FullInf || f.level == PhrExp {
		n += 3
	}
	if f.level == PhrExp {
		n += 2
	}
	return n
}

// documents flattens one document per record. The page's documents share
// one Document array and one Field array. Each document's window of the
// fields holds exactly its fields, so an append to a document reallocates
// and cannot write into a neighbour's window.
func (f *flattener) documents(recs []populate.EventRecord) []*index.Document {
	per := f.fieldsPerDoc()
	fields := make([]index.Field, len(recs)*per)
	docs := make([]index.Document, len(recs))
	out := make([]*index.Document, len(recs))
	for i, rec := range recs {
		d := &docs[i]
		d.Fields = fields[i*per : i*per : (i+1)*per]
		f.eventDocument(d, rec)
		out[i] = d
	}
	return out
}

// eventDocument flattens one event individual into d. One pass over the
// event's outgoing triples yields its types, its narration, the values of
// the four role fields and, above FULL_EXT, the triples rules asserted.
func (f *flattener) eventDocument(d *index.Document, rec populate.EventRecord) {
	g := f.g
	ind := rec.Individual

	types, ruled := f.types[:0], f.triples[:0]
	var narration rdf.ID
	roles := &f.roles
	for i := range roles {
		roles[i] = roles[i][:0]
	}
	for c := g.Scan(ind, 0, 0); c.Next(); {
		if f.rules != nil && f.rules.Asserted(c.Offset()) {
			ruled = append(ruled, c.T)
		}
		switch c.T.P {
		case f.typ:
			types = append(types, c.T.O)
			continue
		case f.narration:
			if narration == 0 || g.CompareIDs(c.T.O, narration) < 0 {
				narration = c.T.O
			}
			continue
		}
		role := f.pred(c.T.P).role
		for i, gr := range genericRoles {
			if role&gr.role != 0 && !containsID(roles[i], c.T.O) {
				roles[i] = append(roles[i], c.T.O)
			}
		}
	}
	g.SortIDs(types)
	f.types, f.triples = types, ruled
	names := &f.values
	for i := range roles {
		g.SortIDs(roles[i])
		names[i] = f.appendNames(names[i][:0], roles[i])
	}
	subjects, objects := roles[0], roles[1]
	subjNames, objNames, subjTeams, objTeams := names[0], names[1], names[2], names[3]

	d.Add(FieldEvent, f.typeText(types))

	minute := strconv.Itoa(rec.Minute)
	d.Add(FieldMatch, f.page.ID)
	d.Add(FieldTeam1, f.page.Home)
	d.Add(FieldTeam2, f.page.Away)
	d.Add(FieldDate, f.page.Date)
	d.Add(FieldMinute, minute)

	d.Add(FieldSubjPlayer, strings.Join(subjNames, " "))
	d.Add(FieldObjPlayer, strings.Join(objNames, " "))
	d.Add(FieldSubjTeam, strings.Join(subjTeams, " "))
	d.Add(FieldObjTeam, strings.Join(objTeams, " "))

	if !f.b.DisableNarrationField {
		text := ""
		if narration != 0 {
			text = g.Term(narration).Value
		}
		d.Add(FieldNarration, text)
	}

	if f.level == FullInf || f.level == PhrExp {
		d.Add(FieldSubjProp, f.playerPropText(subjects))
		d.Add(FieldObjProp, f.playerPropText(objects))
		d.Add(FieldFromRules, f.fromRulesText(ind, ruled))
	}
	if f.level == PhrExp {
		phr := f.words[:0]
		for _, n := range subjNames {
			phr = append(phr, PhrasalTokens("by", n), PhrasalTokens("of", n))
		}
		d.Add(FieldSubjPhrase, strings.Join(phr, " "))
		phr = phr[:0]
		for _, n := range objNames {
			phr = append(phr, PhrasalTokens("to", n))
		}
		d.Add(FieldObjPhrase, strings.Join(phr, " "))
		f.words = phr
	}

	// Stored-only evaluation metadata.
	d.Add(MetaMatchID, f.page.ID)
	d.Add(MetaNarration, strconv.Itoa(rec.NarrationIdx))
	d.Add(MetaKind, string(rec.Kind))
	d.Add(MetaMinute, minute)
	d.Add(MetaSubject, strings.Join(subjNames, "|"))
	d.Add(MetaObject, strings.Join(objNames, "|"))
	d.Add(MetaSubjTeam, strings.Join(subjTeams, "|"))
	d.Add(MetaObjTeam, strings.Join(objTeams, "|"))
}

// typeText renders an event's types, asserted for EXT levels and the full
// closure for INF levels, sorted in term order, as its event field. The
// page's events share a few dozen type sets, so each set's text is built
// once per page.
func (f *flattener) typeText(types []rdf.ID) string {
	key := f.key[:0]
	for _, t := range types {
		key = binary.LittleEndian.AppendUint32(key, uint32(t))
	}
	f.key = key
	if text, ok := f.typeTexts[string(key)]; ok {
		return text
	}
	words := f.words[:0]
	for _, t := range types {
		c := f.class(t)
		if c.text == "" {
			continue
		}
		words = append(words, c.text)
		if tr := f.b.EventTranslations[c.local]; tr != "" {
			words = append(words, tr)
		}
	}
	f.words = words
	text := strings.Join(words, " ")
	f.typeTexts[string(key)] = text
	return text
}

func containsID(ids []rdf.ID, id rdf.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// parts accumulates the distinct space-separated parts of a field.
type parts struct {
	list []string
}

func (p *parts) add(s string) {
	if s == "" {
		return
	}
	for _, x := range p.list {
		if x == s {
			return
		}
	}
	p.list = append(p.list, s)
}

func (p *parts) String() string { return strings.Join(p.list, " ") }

// scratchParts returns the flattener's parts buffer, emptied.
func (f *flattener) scratchParts() *parts {
	f.parts.list = f.parts.list[:0]
	return &f.parts
}

// playerPropText renders the inferred types of the given players, the
// subjectPlayerProp/objectPlayerProp content of Table 2 ("Left back
// defence player ...").
func (f *flattener) playerPropText(players []rdf.ID) string {
	switch len(players) {
	case 0:
		return ""
	case 1:
		return f.player(players[0]).text
	}
	out := f.scratchParts()
	for _, p := range players {
		for _, s := range f.player(p).parts {
			out.add(s)
		}
	}
	return out.String()
}

// fromRulesText renders rule-derived knowledge about the event: properties
// asserted on it by rules (with the value's display name) and inverse
// actor properties pointing at it, camel-split so "actorOfNegativeMove"
// surfaces the query tokens "negative move". ruled is the event's own
// triples that rules asserted, which it filters in place. Parts come in
// sorted triple order — the event's own triples by (predicate, object),
// then the triples pointing at it by (subject, predicate) — so the field
// does not depend on the order the graph happened to be filled in.
func (f *flattener) fromRulesText(ind rdf.ID, ruled []rdf.IDTriple) string {
	if f.rules == nil {
		return ""
	}
	g := f.g
	out := f.scratchParts()

	own := ruled[:0]
	for _, t := range ruled {
		// Values of role properties (concedingTeam, scoredToGoalkeeper, ...)
		// already reach the index through the four role fields; repeating
		// them here would double-count team and player mentions. Likewise
		// skip plumbing (inMatch, inMinute) and unnamed individuals such as
		// the goal an assist points at, whose local name would leak "goal".
		if f.pred(t.P).role != 0 {
			continue
		}
		if g.Term(t.O).IsIRI() && !f.name(t.O).named {
			continue
		}
		own = append(own, t)
	}
	slices.SortFunc(own, func(a, b rdf.IDTriple) int {
		return cmp.Or(g.CompareIDs(a.P, b.P), g.CompareIDs(a.O, b.O))
	})
	for _, t := range own {
		out.add(f.pred(t.P).text)
		if g.Term(t.O).IsIRI() {
			out.add(f.name(t.O).text)
		}
	}

	// Incoming actorOf* triples, rule-made or lifted from a rule-made one
	// along the property hierarchy (actorOfRedCard -> actorOfNegativeMove)
	// by the reasoner.
	incoming := own[:0]
	for c := g.Scan(0, 0, ind); c.Next(); {
		if f.pred(c.T.P).actor != "" {
			incoming = append(incoming, c.T)
		}
	}
	slices.SortFunc(incoming, func(a, b rdf.IDTriple) int {
		return cmp.Or(g.CompareIDs(a.S, b.S), g.CompareIDs(a.P, b.P))
	})
	for _, t := range incoming {
		out.add(f.pred(t.P).actor)
	}
	f.triples = incoming
	return out.String()
}
