package rdf

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
)

// ID numbers a term inside one Graph's dictionary. IDs are dense, start at 1
// and are only meaningful for the graph that issued them (a Clone keeps its
// source's numbering). The zero ID is the wildcard in Scan.
type ID uint32

// IDTriple is a triple in its stored form: three dictionary IDs.
type IDTriple struct {
	S, P, O ID
}

// Graph is an in-memory, append-only set of triples: the paper's models
// are built offline and only ever gain triples, so a triple once added
// stays. Terms are dictionary-encoded to dense IDs when they first enter
// the graph; a triple is stored once, as three IDs, in an append-only
// log, and threaded onto three doubly linked chains — the triples sharing
// its subject, its predicate and its object — so the pattern queries of
// the reasoner and rule engine follow the shortest bound chain instead of
// scanning, and never copy candidates. Whether a triple is present is one
// probe of an open-addressed table of log offsets.
//
// Every query visits triples in the order they were added, whichever
// chain answers it. Match makes no stronger promise; All, Objects,
// Subjects and FirstObject order their results by term.
//
// A Graph is safe for concurrent readers; writes (including Intern) must
// not race with reads. The pipeline follows the paper's discipline of
// building models offline, so the only concurrent access pattern is
// read-only querying.
type Graph struct {
	// terms[id-1] is the term numbered id. iris keys the plain IRIs — nearly
	// every term — by their one string; rest keys blanks and literals.
	terms []Term
	iris  map[string]ID
	rest  map[Term]ID

	// log holds the triples in insertion order. ends[id-1] bounds and
	// counts the chains of term id.
	log  []logEntry
	ends []chainEnds
	// table finds a triple's log entry: each slot holds a log offset+1, or
	// 0 when empty, and a triple sits at the first slot from slotOf(t),
	// probed linearly, that is empty or holds it. Every logged triple fills
	// one slot.
	table []uint32
	// room holds the entry counts iris and rest were last made for: a map
	// keeps its capacity when Reset clears it, so Grow remakes one only
	// when it must hold more.
	room [2]int
}

// logEntry is one stored triple plus, per position, the log offset+1 of the
// next and of the previous triple with the same term in that position (0
// ends the chain).
type logEntry struct {
	t          IDTriple
	next, prev [3]uint32
}

// chainEnds holds, per position, the log offset+1 of the first and last
// triple carrying the term there (0 when none does), and how many triples
// carry it there.
type chainEnds struct {
	head, tail, n [3]uint32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		iris: make(map[string]ID),
		rest: make(map[Term]ID),
	}
}

// Grow makes room for iris more plain IRIs, others more blank nodes and
// literals, and triples more triples, so a caller that knows the shape of
// what it is about to add fills the graph without rehashing its maps and
// table or regrowing its slices.
func (g *Graph) Grow(iris, others, triples int) {
	g.terms = slices.Grow(g.terms, iris+others)
	g.ends = slices.Grow(g.ends, iris+others)
	g.log = slices.Grow(g.log, triples)
	if n := len(g.iris) + iris; n > g.room[0] {
		g.iris, g.room[0] = grown(g.iris, iris), n
	}
	if n := len(g.rest) + others; n > g.room[1] {
		g.rest, g.room[1] = grown(g.rest, others), n
	}
	if !g.fits(triples) {
		g.resize(g.Len() + triples)
	}
}

// Reset empties the graph, dictionary included, and keeps its allocations,
// so a caller that builds one graph after another reuses the room the
// largest took. IDs start again from 1.
func (g *Graph) Reset() {
	g.room = [2]int{max(g.room[0], len(g.iris)), max(g.room[1], len(g.rest))}
	clear(g.terms) // drop the term strings
	g.terms, g.log, g.ends = g.terms[:0], g.log[:0], g.ends[:0]
	clear(g.iris)
	clear(g.rest)
	clear(g.table)
}

// The table is a power of two slots long and at most maxLoad full, so a
// probe for an absent triple ends at an empty slot after a few steps.
const (
	minTable = 8
	maxLoad  = 3 // quarters
)

// fits reports whether the table takes n more triples without a resize.
func (g *Graph) fits(n int) bool { return (len(g.log)+n)*4 <= len(g.table)*maxLoad }

// resize rebuilds the table as the smallest that holds n triples, and puts
// every logged triple in it.
func (g *Graph) resize(n int) {
	size := minTable
	for n*4 > size*maxLoad {
		size *= 2
	}
	g.table = make([]uint32, size)
	for off, e := range g.log {
		i, _ := g.find(e.t)
		g.table[i] = uint32(off) + 1
	}
}

// slotOf is where t's probe starts: the top bits of a multiplicative mix of
// its three IDs, one per table index bit.
func (g *Graph) slotOf(t IDTriple) int {
	h := (uint64(t.S)<<32 | uint64(t.O)) * 0x9e3779b97f4a7c15
	h = (h ^ h>>29 ^ uint64(t.P)) * 0xbf58476d1ce4e5b9
	return int(h >> (64 - bits.TrailingZeros(uint(len(g.table)))))
}

// find probes for t. It returns t's slot and true when t is present; else
// the empty slot that ended the probe, which an add takes, and false. The
// table must not be empty.
func (g *Graph) find(t IDTriple) (int, bool) {
	mask := len(g.table) - 1
	for i := g.slotOf(t); ; i = (i + 1) & mask {
		v := g.table[i]
		if v == 0 {
			return i, false
		}
		if g.log[v-1].t == t {
			return i, true
		}
	}
}

// offset returns the log offset of t, which must have non-zero IDs, and
// whether t is present.
func (g *Graph) offset(t IDTriple) (int, bool) {
	if len(g.table) == 0 {
		return 0, false
	}
	i, ok := g.find(t)
	if !ok {
		return 0, false
	}
	return int(g.table[i]) - 1, true
}

// grown returns a copy of m with room for n more entries: a map's capacity
// is fixed when it is made.
func grown[K comparable, V any](m map[K]V, n int) map[K]V {
	out := make(map[K]V, len(m)+n)
	maps.Copy(out, m)
	return out
}

func plainIRI(t Term) bool { return t.Kind == IRI && t.Lang == "" && t.Datatype == "" }

// Lookup returns the term's ID, or false when the term has never entered
// the graph (so no triple can mention it).
func (g *Graph) Lookup(t Term) (ID, bool) {
	if plainIRI(t) {
		id, ok := g.iris[t.Value]
		return id, ok
	}
	id, ok := g.rest[t]
	return id, ok
}

// Intern returns the term's ID, numbering the term if it is new. The zero
// Term is not a term and must not be interned.
func (g *Graph) Intern(t Term) ID {
	if id, ok := g.Lookup(t); ok {
		return id
	}
	g.terms = append(g.terms, t)
	g.ends = append(g.ends, chainEnds{})
	id := ID(len(g.terms))
	if plainIRI(t) {
		g.iris[t.Value] = id
	} else {
		g.rest[t] = id
	}
	return id
}

// Term returns the term numbered id.
func (g *Graph) Term(id ID) Term { return g.terms[id-1] }

// NumTerms returns how many terms the dictionary holds; IDs run 1..NumTerms.
func (g *Graph) NumTerms() int { return len(g.terms) }

// Triple returns the terms of a stored triple.
func (g *Graph) Triple(t IDTriple) Triple {
	return Triple{S: g.Term(t.S), P: g.Term(t.P), O: g.Term(t.O)}
}

// lookup3 resolves a triple whose terms must all be known.
func (g *Graph) lookup3(t Triple) (IDTriple, bool) {
	s, ok1 := g.Lookup(t.S)
	p, ok2 := g.Lookup(t.P)
	o, ok3 := g.Lookup(t.O)
	return IDTriple{s, p, o}, ok1 && ok2 && ok3
}

// Add inserts a triple. It reports whether the triple was not already
// present, which the rule engine and the reasoner use to detect a fixpoint.
func (g *Graph) Add(t Triple) bool {
	return g.AddIDs(g.Intern(t.S), g.Intern(t.P), g.Intern(t.O))
}

// AddSPO is Add with unpacked terms.
func (g *Graph) AddSPO(s, p, o Term) bool { return g.Add(Triple{S: s, P: p, O: o}) }

// AddIDs is Add for terms already interned in this graph.
func (g *Graph) AddIDs(s, p, o ID) bool {
	t := IDTriple{s, p, o}
	if !g.fits(1) {
		g.resize(g.Len() + 1)
	}
	i, ok := g.find(t)
	if ok {
		return false
	}
	off := uint32(len(g.log))
	g.table[i] = off + 1
	g.log = append(g.log, logEntry{t: t})
	l := &g.log[off]
	for pos, id := range [3]ID{s, p, o} {
		e := &g.ends[id-1]
		if e.tail[pos] == 0 {
			e.head[pos] = off + 1
		} else {
			g.log[e.tail[pos]-1].next[pos] = off + 1
		}
		l.prev[pos] = e.tail[pos]
		e.tail[pos] = off + 1
		e.n[pos]++
	}
	return true
}

// Has reports whether the exact triple is present.
func (g *Graph) Has(t Triple) bool {
	it, ok := g.lookup3(t)
	return ok && g.HasIDs(it.S, it.P, it.O)
}

// HasSPO is Has with unpacked terms.
func (g *Graph) HasSPO(s, p, o Term) bool { return g.Has(Triple{S: s, P: p, O: o}) }

// HasIDs is Has for interned terms.
func (g *Graph) HasIDs(s, p, o ID) bool {
	if len(g.table) == 0 {
		return false
	}
	_, ok := g.find(IDTriple{s, p, o})
	return ok
}

// Len returns the number of triples.
func (g *Graph) Len() int { return len(g.log) }

// LogLen returns the length of the insertion log, which only grows: the
// triples added since an earlier LogLen() == n are exactly At(n),
// At(n+1), ... — how the reasoner finds its delta.
func (g *Graph) LogLen() int { return len(g.log) }

// At returns the i-th logged triple.
func (g *Graph) At(i int) IDTriple { return g.log[i].t }

// Cursor iterates the triples matching a Scan pattern without copying
// them. It sees the graph as of the Scan call: triples added while
// iterating are not visited, so a caller may add as it goes.
type Cursor struct {
	g    *Graph
	want IDTriple
	// pos is the chain being followed (0 S, 1 P, 2 O), or -1 for the log.
	pos   int
	next  uint32 // offset+1 of the next candidate; 0 when exhausted
	bound uint32 // end of the visited log range: LogLen at Scan time, or ScanRange's to
	at    uint32 // offset+1 of T
	// T is the current triple, valid after Next returned true.
	T IDTriple
}

// Scan starts an iteration over the triples matching the pattern, where a
// zero ID is a wildcard, in insertion order. A fully bound pattern is one
// probe of the table; otherwise Scan follows the shortest chain of a bound
// term — the subject's, then the object's, then the predicate's on a tie —
// and reads the log only when nothing is bound. Every chain is in log
// order, so the choice changes what is read, never what is visited.
func (g *Graph) Scan(s, p, o ID) Cursor {
	if s != 0 && p != 0 && o != 0 {
		return g.ScanRange(s, p, o, 0, len(g.log))
	}
	c := Cursor{g: g, want: IDTriple{s, p, o}, bound: uint32(len(g.log))}
	c.pos = g.chain(s, p, o)
	switch {
	case c.pos >= 0:
		c.next = g.ends[[3]ID{s, p, o}[c.pos]-1].head[c.pos]
	case len(g.log) > 0:
		c.next = 1
	}
	return c
}

// chain picks the chain Scan follows for the pattern: the position of the
// bound term whose chain holds the fewest triples, or -1 when none is
// bound.
func (g *Graph) chain(s, p, o ID) int {
	pos, n := -1, uint32(0)
	for _, at := range [3]int{0, 2, 1} {
		id := [3]ID{s, p, o}[at]
		if id == 0 {
			continue
		}
		if k := g.ends[id-1].n[at]; pos < 0 || k < n {
			pos, n = at, k
		}
	}
	return pos
}

// ScanRange is Scan restricted to the triples at log offsets [from, to),
// with to at most LogLen(). A fully bound pattern is one probe of the
// table. A range starting past 0 enters the chain from its tail, walking
// back over the chain's triples at or past from, so it reads none of the
// log between them; with nothing bound it reads the log from from.
func (g *Graph) ScanRange(s, p, o ID, from, to int) Cursor {
	if s != 0 && p != 0 && o != 0 {
		c := Cursor{g: g, want: IDTriple{s, p, o}, pos: -1}
		if off, ok := g.offset(IDTriple{s, p, o}); ok && off >= from && off < to {
			c.next, c.bound = uint32(off)+1, uint32(off)+1
		}
		return c
	}
	c := g.Scan(s, p, o)
	c.bound = uint32(to)
	if from == 0 || c.next == 0 {
		return c
	}
	if c.pos < 0 {
		c.next = uint32(from) + 1
		return c
	}
	cur := g.ends[[3]ID{s, p, o}[c.pos]-1].tail[c.pos]
	if cur <= uint32(from) {
		c.next = 0
		return c
	}
	for prev := g.log[cur-1].prev[c.pos]; prev > uint32(from); prev = g.log[cur-1].prev[c.pos] {
		cur = prev
	}
	c.next = cur
	return c
}

// Next advances to the next matching triple and reports whether there is one.
func (c *Cursor) Next() bool {
	for c.next != 0 && c.next <= c.bound {
		at := c.next
		e := &c.g.log[at-1]
		if c.pos >= 0 {
			c.next = e.next[c.pos]
		} else {
			c.next++
		}
		t, w := e.t, c.want
		if (w.S == 0 || t.S == w.S) && (w.P == 0 || t.P == w.P) && (w.O == 0 || t.O == w.O) {
			c.T, c.at = t, at
			return true
		}
	}
	c.next = 0
	return false
}

// Offset returns the log offset of T, valid after Next returned true.
func (c *Cursor) Offset() int { return int(c.at) - 1 }

// Wildcard is the zero Term; passing it to Match leaves that position
// unconstrained.
var Wildcard = Term{}

// scanTerms is Scan over terms; ok is false when a bound term is unknown
// to the graph, in which case nothing can match.
func (g *Graph) scanTerms(s, p, o Term) (c Cursor, ok bool) {
	var ids [3]ID
	for i, t := range [3]Term{s, p, o} {
		if t.IsZero() {
			continue
		}
		if ids[i], ok = g.Lookup(t); !ok {
			return c, false
		}
	}
	return g.Scan(ids[0], ids[1], ids[2]), true
}

// Match returns all triples matching the pattern, where the zero Term acts
// as a wildcard in any position, in the order they were added.
func (g *Graph) Match(s, p, o Term) []Triple {
	c, ok := g.scanTerms(s, p, o)
	if !ok {
		return nil
	}
	var out []Triple
	for c.Next() {
		out = append(out, g.Triple(c.T))
	}
	return out
}

// Objects returns the distinct objects of triples (s, p, *), sorted.
func (g *Graph) Objects(s, p Term) []Term {
	return g.distinct(s, p, Wildcard, func(t IDTriple) ID { return t.O })
}

// Subjects returns the distinct subjects of triples (*, p, o), sorted.
func (g *Graph) Subjects(p, o Term) []Term {
	return g.distinct(Wildcard, p, o, func(t IDTriple) ID { return t.S })
}

func (g *Graph) distinct(s, p, o Term, pick func(IDTriple) ID) []Term {
	c, ok := g.scanTerms(s, p, o)
	if !ok {
		return []Term{}
	}
	seen := map[ID]struct{}{}
	out := []Term{}
	for c.Next() {
		id := pick(c.T)
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, g.Term(id))
		}
	}
	SortTerms(out)
	return out
}

// FirstObject returns the least object, in term order, of the (s, p, *)
// triples, or the zero Term when none exists. Handy for functional
// properties such as inMinute.
func (g *Graph) FirstObject(s, p Term) Term {
	if c, ok := g.scanTerms(s, p, Wildcard); ok {
		if id := g.leastObject(c); id != 0 {
			return g.Term(id)
		}
	}
	return Term{}
}

// FirstObjectID is FirstObject for interned terms; it returns 0 when the
// subject has no value for the predicate.
func (g *Graph) FirstObjectID(s, p ID) ID { return g.leastObject(g.Scan(s, p, 0)) }

func (g *Graph) leastObject(c Cursor) ID {
	var best ID
	for c.Next() {
		if best == 0 || g.CompareIDs(c.T.O, best) < 0 {
			best = c.T.O
		}
	}
	return best
}

// All returns every triple in deterministic (sorted) order, which the Turtle
// writer and tests rely on for reproducible output.
func (g *Graph) All() []Triple {
	ts := make([]Triple, 0, len(g.log))
	for _, e := range g.log {
		ts = append(ts, g.Triple(e.t))
	}
	SortTriples(ts)
	return ts
}

// AddAll copies every triple of src into g, in src's insertion order.
func (g *Graph) AddAll(src *Graph) {
	ids := make([]ID, len(src.terms)+1) // src ID -> g ID, interned on first use
	to := func(id ID) ID {
		if ids[id] == 0 {
			ids[id] = g.Intern(src.Term(id))
		}
		return ids[id]
	}
	for _, e := range src.log {
		g.AddIDs(to(e.t.S), to(e.t.P), to(e.t.O))
	}
}

// Clone returns a deep copy of the graph with the same dictionary
// numbering and insertion order. inference.Run and reasoner.Materialize
// saturate a clone for callers that still read the pre-inference model, so
// the clone has room, as Grow would make, for half again as many triples
// and a quarter again as many terms. On the benchmark corpus's pages,
// Materialize adds 43% to a populated model's triples and 20% to its
// terms, and the rules then add 6% to a materialized one, which fits;
// inference.Run, both at once, adds 64% and regrows the log once.
func (g *Graph) Clone() *Graph {
	triples, terms := len(g.log)/2, len(g.terms)/4
	c := &Graph{
		terms: withRoom(g.terms, terms),
		iris:  maps.Clone(g.iris),
		rest:  maps.Clone(g.rest),
		log:   withRoom(g.log, triples),
		ends:  withRoom(g.ends, terms),
	}
	if g.fits(triples) {
		c.table = slices.Clone(g.table)
	} else {
		c.resize(len(g.log) + triples)
	}
	return c
}

// withRoom returns a copy of s with room for n more elements.
func withRoom[S ~[]E, E any](s S, n int) S { return append(make(S, 0, len(s)+n), s...) }

// blankCounter makes blank labels unique across every graph in the
// process, not just within one: per-match models are routinely merged
// (formal queries, the global-model ablation), and graph-local counters
// would collide the rule-minted assists of different matches into one node.
var blankCounter atomic.Int64

// NewBlankNode mints a fresh blank node, used by the rule engine's
// makeTemp builtin. Labels are unique process-wide.
func (g *Graph) NewBlankNode() Term {
	return NewBlank(blankLabel(int(blankCounter.Add(1))))
}

func blankLabel(id int) string {
	// Base-10 label with a stable prefix; labels never collide because ids
	// increase monotonically per graph.
	const prefix = "b"
	buf := [20]byte{}
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	return prefix + string(buf[i:])
}

// SortTerms orders terms by kind then value, language and datatype.
func SortTerms(ts []Term) { slices.SortFunc(ts, compareTerms) }

// CompareIDs compares two of the graph's terms in the order of SortTerms.
func (g *Graph) CompareIDs(a, b ID) int { return compareTerms(g.Term(a), g.Term(b)) }

// SortIDs orders the graph's term IDs by the term order of SortTerms.
func (g *Graph) SortIDs(ids []ID) { slices.SortFunc(ids, g.CompareIDs) }

// SortTriples orders triples lexicographically by subject, predicate, object.
func SortTriples(ts []Triple) {
	slices.SortFunc(ts, func(a, b Triple) int {
		if c := compareTerms(a.S, b.S); c != 0 {
			return c
		}
		if c := compareTerms(a.P, b.P); c != 0 {
			return c
		}
		return compareTerms(a.O, b.O)
	})
}

func compareTerms(a, b Term) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Lang, b.Lang); c != 0 {
		return c
	}
	return strings.Compare(a.Datatype, b.Datatype)
}
