package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func soccerIRI(local string) Term { return NewIRI(NSSoccer + local) }

func TestGraphAddHasLen(t *testing.T) {
	g := NewGraph()
	tr := NewTriple(soccerIRI("goal1"), RDFType, soccerIRI("Goal"))
	if !g.Add(tr) {
		t.Error("first Add returned false")
	}
	if g.Add(tr) {
		t.Error("duplicate Add returned true")
	}
	if !g.Has(tr) {
		t.Error("Has missed added triple")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if !g.HasSPO(tr.S, tr.P, tr.O) {
		t.Error("HasSPO missed added triple")
	}
}

func TestGraphMatchPatterns(t *testing.T) {
	g := NewGraph()
	goal := soccerIRI("goal1")
	foul := soccerIRI("foul1")
	g.AddSPO(goal, RDFType, soccerIRI("Goal"))
	g.AddSPO(foul, RDFType, soccerIRI("Foul"))
	g.AddSPO(goal, soccerIRI("inMinute"), NewInt(10))
	g.AddSPO(foul, soccerIRI("inMinute"), NewInt(43))

	cases := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"all wildcards", Wildcard, Wildcard, Wildcard, 4},
		{"by subject", goal, Wildcard, Wildcard, 2},
		{"by predicate", Wildcard, RDFType, Wildcard, 2},
		{"by object", Wildcard, Wildcard, soccerIRI("Goal"), 1},
		{"s+p", goal, RDFType, Wildcard, 1},
		{"p+o", Wildcard, RDFType, soccerIRI("Foul"), 1},
		{"exact", goal, soccerIRI("inMinute"), NewInt(10), 1},
		{"no match", goal, RDFType, soccerIRI("Foul"), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := g.Match(c.s, c.p, c.o); len(got) != c.want {
				t.Errorf("Match returned %d triples, want %d", len(got), c.want)
			}
		})
	}
}

func TestGraphObjectsSubjectsDeterministic(t *testing.T) {
	g := NewGraph()
	e := soccerIRI("e1")
	g.AddSPO(e, RDFType, soccerIRI("Goal"))
	g.AddSPO(e, RDFType, soccerIRI("Event"))
	g.AddSPO(e, RDFType, soccerIRI("PositiveEvent"))
	want := []Term{soccerIRI("Event"), soccerIRI("Goal"), soccerIRI("PositiveEvent")}
	for i := 0; i < 5; i++ {
		if got := g.Objects(e, RDFType); !reflect.DeepEqual(got, want) {
			t.Fatalf("Objects = %v, want %v", got, want)
		}
	}
	subs := g.Subjects(RDFType, soccerIRI("Goal"))
	if len(subs) != 1 || subs[0] != e {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestGraphObjectsDeduplicated(t *testing.T) {
	g := NewGraph()
	e := soccerIRI("e1")
	// Same object via two predicates should still appear once per predicate query.
	g.AddSPO(e, soccerIRI("subjectPlayer"), NewLiteral("Messi"))
	g.AddSPO(e, soccerIRI("scorerPlayer"), NewLiteral("Messi"))
	if got := g.Objects(e, soccerIRI("subjectPlayer")); len(got) != 1 {
		t.Errorf("Objects = %v", got)
	}
}

func TestFirstObject(t *testing.T) {
	g := NewGraph()
	e := soccerIRI("e1")
	if !g.FirstObject(e, RDFType).IsZero() {
		t.Error("FirstObject on empty graph not zero")
	}
	g.AddSPO(e, soccerIRI("inMinute"), NewInt(7))
	if got := g.FirstObject(e, soccerIRI("inMinute")); got != NewInt(7) {
		t.Errorf("FirstObject = %v", got)
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := NewGraph()
	g.AddSPO(soccerIRI("a"), RDFType, soccerIRI("Goal"))
	c := g.Clone()
	c.AddSPO(soccerIRI("b"), RDFType, soccerIRI("Foul"))
	if g.Len() != 1 {
		t.Errorf("clone write leaked into original: len=%d", g.Len())
	}
	if c.Len() != 2 {
		t.Errorf("clone len = %d, want 2", c.Len())
	}
	// Blank node sequences must not collide after cloning.
	b1 := g.NewBlankNode()
	b2 := c.NewBlankNode()
	if b1 != b2 {
		// Same counter state is fine (they're different graphs), but within a
		// graph they must be distinct.
		t.Logf("blank nodes diverge across graphs: %v vs %v", b1, b2)
	}
	if g.NewBlankNode() == b1 {
		t.Error("NewBlankNode repeated a label")
	}
}

func TestNewBlankNodeUnique(t *testing.T) {
	g := NewGraph()
	seen := make(map[Term]bool)
	for i := 0; i < 1000; i++ {
		b := g.NewBlankNode()
		if seen[b] {
			t.Fatalf("duplicate blank node %v at iteration %d", b, i)
		}
		seen[b] = true
	}
}

func TestGraphAddAll(t *testing.T) {
	a := NewGraph()
	a.AddSPO(soccerIRI("x"), RDFType, soccerIRI("Goal"))
	b := NewGraph()
	b.AddSPO(soccerIRI("y"), RDFType, soccerIRI("Foul"))
	b.AddAll(a)
	if b.Len() != 2 {
		t.Errorf("AddAll result len = %d, want 2", b.Len())
	}
}

func TestGraphConcurrentReads(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 100; i++ {
		g.AddSPO(soccerIRI(fmt.Sprintf("e%d", i)), RDFType, soccerIRI("Event"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := len(g.Match(Wildcard, RDFType, soccerIRI("Event"))); n != 100 {
					t.Errorf("concurrent Match = %d, want 100", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSortTriplesTotalOrder(t *testing.T) {
	ts := []Triple{
		{soccerIRI("b"), RDFType, soccerIRI("Goal")},
		{soccerIRI("a"), RDFType, soccerIRI("Goal")},
		{soccerIRI("a"), RDFType, soccerIRI("Event")},
		{soccerIRI("a"), NewIRI(NSRDFS + "label"), NewLiteral("x")},
	}
	SortTriples(ts)
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if a == b {
			t.Fatalf("duplicate after sort at %d", i)
		}
	}
	if ts[len(ts)-1].S != soccerIRI("b") {
		t.Errorf("sort order wrong: %v", ts)
	}
}

// randomTriple builds a deterministic pseudo-random triple for property tests.
func randomTriple(r *rand.Rand) Triple {
	subj := soccerIRI(fmt.Sprintf("s%d", r.Intn(20)))
	pred := soccerIRI(fmt.Sprintf("p%d", r.Intn(5)))
	var obj Term
	switch r.Intn(3) {
	case 0:
		obj = soccerIRI(fmt.Sprintf("o%d", r.Intn(20)))
	case 1:
		obj = NewInt(r.Intn(90))
	default:
		obj = NewLiteral(fmt.Sprintf("lit %d", r.Intn(20)))
	}
	return Triple{S: subj, P: pred, O: obj}
}

// Property: for any set of triples, every index answers Match consistently
// with a naive scan.
func TestMatchAgreesWithScanProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var all []Triple
		for i := 0; i < int(n%64)+1; i++ {
			tr := randomTriple(r)
			if g.Add(tr) {
				all = append(all, tr)
			}
		}
		probe := randomTriple(r)
		check := func(s, p, o Term) bool {
			got := g.Match(s, p, o)
			want := 0
			for _, tr := range all {
				if (s.IsZero() || tr.S == s) && (p.IsZero() || tr.P == p) && (o.IsZero() || tr.O == o) {
					want++
				}
			}
			return len(got) == want
		}
		return check(probe.S, Wildcard, Wildcard) &&
			check(Wildcard, probe.P, Wildcard) &&
			check(Wildcard, Wildcard, probe.O) &&
			check(probe.S, probe.P, Wildcard) &&
			check(probe.S, probe.P, probe.O) &&
			check(Wildcard, Wildcard, Wildcard)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatchVisitsInInsertionOrder(t *testing.T) {
	g := NewGraph()
	e := soccerIRI("e")
	var want []Triple
	for _, o := range []string{"zeta", "alpha", "mid"} {
		tr := NewTriple(e, soccerIRI("p"), soccerIRI(o))
		g.Add(tr)
		want = append(want, tr)
	}
	for name, gr := range map[string]*Graph{"original": g, "clone": g.Clone()} {
		for _, pat := range [][3]Term{{e, Wildcard, Wildcard}, {Wildcard, soccerIRI("p"), Wildcard}, {Wildcard, Wildcard, Wildcard}} {
			if got := gr.Match(pat[0], pat[1], pat[2]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s Match%v = %v, want insertion order %v", name, pat, got, want)
			}
		}
	}
	if all := g.All(); all[0].O != soccerIRI("alpha") {
		t.Errorf("All() not term-sorted: %v", all)
	}
}

func TestScanSeesGraphAsOfCall(t *testing.T) {
	g := NewGraph()
	s, p := g.Intern(soccerIRI("s")), g.Intern(soccerIRI("p"))
	for i := 0; i < 3; i++ {
		g.AddIDs(s, p, g.Intern(NewInt(i)))
	}
	n := 0
	for c := g.Scan(s, 0, 0); c.Next(); n++ {
		// Adding to the chain being walked must not extend the walk.
		g.AddIDs(s, p, g.Intern(NewInt(100+n)))
	}
	if n != 3 || g.Len() != 6 {
		t.Errorf("visited %d triples (want 3), graph has %d (want 6)", n, g.Len())
	}
}

// Property: ScanRange visits exactly the triples at log offsets [from, to)
// that match its pattern, in log order, whichever chain or log walk it
// picks.
func TestScanRangeMatchesLogFilter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for i := 0; i < 60; i++ {
			g.Add(randomTriple(r))
		}
		n := g.LogLen()
		for probe := 0; probe < 20; probe++ {
			at := g.At(r.Intn(n))
			want := [3]ID{at.S, at.P, at.O}
			for i := range want {
				if r.Intn(2) == 0 {
					want[i] = 0
				}
			}
			from := r.Intn(n + 1)
			to := from + r.Intn(n-from+1)
			var exp []IDTriple
			for i := from; i < to; i++ {
				tr := g.At(i)
				if (want[0] == 0 || tr.S == want[0]) && (want[1] == 0 || tr.P == want[1]) && (want[2] == 0 || tr.O == want[2]) {
					exp = append(exp, tr)
				}
			}
			var got []IDTriple
			for c := g.ScanRange(want[0], want[1], want[2], from, to); c.Next(); {
				got = append(got, c.T)
			}
			if !reflect.DeepEqual(got, exp) {
				t.Logf("seed %d pattern %v range [%d,%d): got %v, want %v", seed, want, from, to, got, exp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddAllAcrossDictionaries(t *testing.T) {
	// The two graphs number the shared terms differently; AddAll must
	// translate, not copy IDs.
	a, b := NewGraph(), NewGraph()
	b.AddSPO(soccerIRI("other"), RDFType, soccerIRI("Foul"))
	a.AddSPO(soccerIRI("x"), RDFType, soccerIRI("Goal"))
	a.AddSPO(soccerIRI("x"), soccerIRI("inMinute"), NewInt(3))
	b.AddAll(a)
	for _, tr := range a.All() {
		if !b.Has(tr) {
			t.Errorf("AddAll lost %v", tr)
		}
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
	if _, ok := a.Lookup(soccerIRI("Foul")); ok {
		t.Error("AddAll wrote to its source's dictionary")
	}
}

// TestGrowKeepsContentsAndSizesOnce: Grow keeps what a graph holds, IDs
// included, and a graph grown for a known number of terms and triples
// fills without allocating.
func TestGrowKeepsContentsAndSizesOnce(t *testing.T) {
	const n = 100
	var iris, lits []Term
	for i := 0; i < n; i++ {
		iris = append(iris, soccerIRI(fmt.Sprintf("e%d", i)))
		lits = append(lits, NewInt(1000+i))
	}
	grown := func() *Graph {
		g := NewGraph()
		g.AddSPO(iris[0], RDFType, soccerIRI("Goal"))
		id, _ := g.Lookup(iris[0])
		g.Grow(n, n, n)
		if got, ok := g.Lookup(iris[0]); !ok || got != id || !g.HasSPO(iris[0], RDFType, soccerIRI("Goal")) {
			t.Fatal("Grow lost the graph's contents")
		}
		return g
	}
	graphs := []*Graph{grown(), grown()}
	p := soccerIRI("inMinute")
	allocs := testing.AllocsPerRun(1, func() {
		g := graphs[0]
		graphs = graphs[1:]
		pid := g.Intern(p)
		for i := range iris {
			g.AddIDs(g.Intern(iris[i]), pid, g.Intern(lits[i]))
		}
	})
	if allocs != 0 {
		t.Errorf("filling a grown graph allocated %.0f times", allocs)
	}
}

// TestResetMatchesFresh: a graph Reset after holding other triples numbers terms and answers every query as a new graph given the
// same adds does, and refilling it to its old size allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var adds []Triple
	for i := 0; i < 80; i++ {
		adds = append(adds, randomTriple(r))
	}
	fill := func(g *Graph) {
		g.Grow(40, 40, len(adds))
		for _, tr := range adds {
			g.Add(tr)
		}
	}
	used := NewGraph()
	for i := 0; i < 120; i++ {
		used.Add(randomTriple(r))
	}
	used.Reset()
	fresh := NewGraph()
	fill(used)
	fill(fresh)
	if used.NumTerms() != fresh.NumTerms() || used.Len() != fresh.Len() {
		t.Fatalf("after Reset: %d terms, %d triples; fresh %d terms, %d triples",
			used.NumTerms(), used.Len(), fresh.NumTerms(), fresh.Len())
	}
	for id := ID(1); id <= ID(fresh.NumTerms()); id++ {
		if used.Term(id) != fresh.Term(id) {
			t.Fatalf("term %d: %v after Reset, %v fresh", id, used.Term(id), fresh.Term(id))
		}
	}
	for i := 0; i < fresh.LogLen(); i++ {
		at := fresh.At(i)
		for mask := 0; mask < 8; mask++ {
			want := [3]ID{at.S, at.P, at.O}
			for pos := range want {
				if mask&(1<<pos) == 0 {
					want[pos] = 0
				}
			}
			from := i / 2
			var got, exp []IDTriple
			for c := used.ScanRange(want[0], want[1], want[2], from, used.LogLen()); c.Next(); {
				got = append(got, c.T)
			}
			for c := fresh.ScanRange(want[0], want[1], want[2], from, fresh.LogLen()); c.Next(); {
				exp = append(exp, c.T)
			}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("pattern %v from %d: %v after Reset, %v fresh", want, from, got, exp)
			}
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { used.Reset(); fill(used) }); allocs != 0 {
		t.Errorf("refilling a Reset graph allocated %.0f times", allocs)
	}
}

// TestCursorOffset: a cursor reports the log offset of each triple it
// visits, by chain, by table probe and by log walk.
func TestCursorOffset(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := NewGraph()
	for i := 0; i < 60; i++ {
		g.Add(randomTriple(r))
	}
	for i := 0; i < g.LogLen(); i++ {
		at := g.At(i)
		for _, pat := range [][3]ID{{at.S, 0, 0}, {0, at.P, 0}, {0, 0, at.O}, {at.S, at.P, at.O}, {0, 0, 0}} {
			for c := g.Scan(pat[0], pat[1], pat[2]); c.Next(); {
				if got := g.At(c.Offset()); got != c.T {
					t.Fatalf("pattern %v: Offset %d holds %v, cursor at %v", pat, c.Offset(), got, c.T)
				}
			}
		}
	}
}
