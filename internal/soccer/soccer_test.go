package soccer

import (
	"strings"
	"testing"

	"repro/internal/owl"
	"repro/internal/rdf"
)

// TestOntologyShapeFig2 pins the paper's reported ontology size: 79
// concepts and 95 properties (Section 3.2).
func TestOntologyShapeFig2(t *testing.T) {
	o := BuildOntology()
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := o.Stats()
	if s.Classes != 79 {
		t.Errorf("classes = %d, want 79", s.Classes)
	}
	if s.Properties() != 95 {
		t.Errorf("properties = %d, want 95", s.Properties())
	}
	if s.Restrictions < 4 {
		t.Errorf("restrictions = %d, want >= 4", s.Restrictions)
	}
	if s.DisjointPairs < 3 {
		t.Errorf("disjoint pairs = %d", s.DisjointPairs)
	}
}

func TestOntologyHierarchySpotChecks(t *testing.T) {
	o := BuildOntology()
	cases := []struct{ child, parent string }{
		{"LongPass", "Pass"},
		{"Pass", "PositiveEvent"},
		{"YellowCard", "Punishment"},
		{"SecondYellowCard", "RedCard"},
		{"Punishment", "NegativeEvent"},
		{"LeftBack", "DefencePlayer"},
		{"DefencePlayer", "Player"},
		{"GoalkeeperPlayer", "Player"},
		{"MissedPenalty", "Miss"},
		{"HandBall", "Foul"},
	}
	for _, c := range cases {
		cls := o.ClassByIRI(o.IRI(c.child))
		if cls == nil {
			t.Errorf("class %s missing", c.child)
			continue
		}
		found := false
		for _, p := range cls.Parents {
			if p == o.IRI(c.parent) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not a direct subclass of %s", c.child, c.parent)
		}
	}
}

func TestOntologyPropertyHierarchy(t *testing.T) {
	o := BuildOntology()
	for prop, parent := range map[string]string{
		"scorerPlayer":       "subjectPlayer",
		"punishedPlayer":     "subjectPlayer",
		"injuredPlayer":      "objectPlayer",
		"scoredToGoalkeeper": "objectPlayer",
		"scoringTeam":        "subjectTeam",
		"concedingTeam":      "objectTeam",
		"actorOfRedCard":     "actorOfNegativeMove",
		"actorOfGoal":        "actorOfPositiveMove",
	} {
		p := o.Property(prop)
		if p == nil {
			t.Errorf("property %s missing", prop)
			continue
		}
		found := false
		for _, par := range p.Parents {
			if par == o.IRI(parent) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not a sub-property of %s", prop, parent)
		}
	}
}

func TestHierarchyStringContainsFig2Subtrees(t *testing.T) {
	h := BuildOntology().HierarchyString()
	for _, want := range []string{
		"Event\n",
		"  NegativeEvent\n",
		"    Punishment\n      RedCard",
		"    DefencePlayer\n",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("hierarchy missing %q\n%s", want, h)
		}
	}
}

func TestPositionClass(t *testing.T) {
	cases := map[string]string{
		"GK": "GoalkeeperPlayer", "LB": "LeftBack", "RB": "RightBack",
		"CB": "CenterBack", "SW": "Sweeper", "DM": "DefensiveMidfielder",
		"CM": "CentralMidfielder", "AM": "AttackingMidfielder",
		"LW": "LeftWinger", "RW": "RightWinger", "CF": "CenterForward",
		"SS": "SecondStriker", "??": "Player", "": "Player",
	}
	o := BuildOntology()
	for pos, want := range cases {
		got := PositionClass(pos)
		if got != want {
			t.Errorf("PositionClass(%q) = %q, want %q", pos, got, want)
		}
		if o.ClassByIRI(o.IRI(got)) == nil {
			t.Errorf("PositionClass(%q) = %q is not an ontology class", pos, got)
		}
	}
}

func TestRulesParse(t *testing.T) {
	rs := Rules()
	if len(rs) < 15 {
		t.Errorf("rule set has %d rules", len(rs))
	}
	names := map[string]bool{}
	for _, r := range rs {
		if r.Name == "" {
			t.Errorf("unnamed rule: %s", r)
		}
		if names[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"assistRule", "scoredToGoalkeeperRule", "actorRed", "homeWinRule"} {
		if !names[want] {
			t.Errorf("missing rule %s", want)
		}
	}
}

func TestRuleVocabularyDeclared(t *testing.T) {
	// Every pre: IRI mentioned in the rule text must be declared in the
	// ontology, so a typo in RuleText fails here rather than silently
	// never matching.
	o := BuildOntology()
	for _, r := range Rules() {
		check := func(term rdf.Term) {
			if !term.IsIRI() || !strings.HasPrefix(term.Value, rdf.NSSoccer) {
				return
			}
			name := term.LocalName()
			if o.ClassByIRI(o.IRI(name)) == nil && o.Property(name) == nil {
				t.Errorf("rule %s references undeclared term pre:%s", r.Name, name)
			}
		}
		for _, item := range r.Body {
			if item.Pattern != nil {
				check(item.Pattern.S.Term)
				check(item.Pattern.P.Term)
				check(item.Pattern.O.Term)
			} else {
				for _, a := range item.Builtin.Args {
					check(a.Term)
				}
			}
		}
		for _, h := range r.Head {
			check(h.S.Term)
			check(h.P.Term)
			check(h.O.Term)
		}
	}
}

func TestBuildTeams(t *testing.T) {
	teams := BuildTeams()
	if len(teams) != 8 {
		t.Fatalf("%d teams", len(teams))
	}
	shortSeen := map[string]int{}
	for _, tm := range teams {
		if len(tm.Players) != 11 {
			t.Errorf("%s has %d players", tm.Name, len(tm.Players))
		}
		if tm.Goalkeeper() == nil || tm.Goalkeeper().Position != "GK" {
			t.Errorf("%s goalkeeper wrong", tm.Name)
		}
		positions := map[string]bool{}
		for _, p := range tm.Players {
			positions[p.Position] = true
			shortSeen[p.Short]++
		}
		// Each lineup covers one player per position flavor, so every
		// position class gets individuals (Q-10 needs the defence subtree).
		for _, pos := range []string{"GK", "LB", "RB", "CB", "SW", "CF"} {
			if !positions[pos] {
				t.Errorf("%s lacks position %s", tm.Name, pos)
			}
		}
	}
	// Paper-named players must exist with the narration short names the
	// Table 3 queries use.
	for _, short := range []string{"Messi", "Casillas", "Alex", "Henry", "Ronaldo", "Daniel", "Florent", "Eto'o", "Raul"} {
		if shortSeen[short] == 0 {
			t.Errorf("no player with short name %q", short)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.Stats() != b.Stats() {
		t.Errorf("stats differ: %s vs %s", a.Stats(), b.Stats())
	}
	for i := range a.Matches {
		ma, mb := a.Matches[i], b.Matches[i]
		if ma.ID != mb.ID || len(ma.Narrations) != len(mb.Narrations) {
			t.Fatalf("match %d differs", i)
		}
		for j := range ma.Narrations {
			if ma.Narrations[j] != mb.Narrations[j] {
				t.Fatalf("match %d narration %d differs: %q vs %q", i, j, ma.Narrations[j].Text, mb.Narrations[j].Text)
			}
		}
	}
}

func TestGenerateScale(t *testing.T) {
	c := Generate(DefaultConfig())
	if len(c.Matches) != 10 {
		t.Errorf("%d matches", len(c.Matches))
	}
	n, truth := 0, 0
	for _, m := range c.Matches {
		n += len(m.Narrations)
		truth += len(m.Truth)
	}
	// The paper's corpus: 1182 narrations over 10 matches.
	if n < 1150 || n > 1250 {
		t.Errorf("narrations = %d, want ~1180", n)
	}
	if truth < 700 {
		t.Errorf("truth events = %d", truth)
	}
	if !strings.Contains(c.Stats(), "10 matches") {
		t.Errorf("Stats = %q", c.Stats())
	}
}

func TestGenerateInvariants(t *testing.T) {
	c := Generate(Config{Matches: 20, Seed: 99, NarrationsPerMatch: 118, PaperCoverage: true})
	for _, m := range c.Matches {
		if m.Home == m.Away {
			t.Fatalf("match %s: team plays itself", m.ID)
		}
		// Score equals goal list length.
		if len(m.Goals) != m.HomeScore+m.AwayScore {
			t.Errorf("match %s: %d goals listed for score %d-%d", m.ID, len(m.Goals), m.HomeScore, m.AwayScore)
		}
		// Narrations sorted by minute.
		for i := 1; i < len(m.Narrations); i++ {
			if m.Narrations[i].Minute < m.Narrations[i-1].Minute {
				t.Errorf("match %s: narrations unsorted at %d", m.ID, i)
				break
			}
		}
		// Truth narration indexes valid and injective.
		seen := map[int]bool{}
		for _, tr := range m.Truth {
			if tr.NarrationIdx < -1 || tr.NarrationIdx >= len(m.Narrations) {
				t.Errorf("match %s: bad narration index %d", m.ID, tr.NarrationIdx)
			}
			if tr.NarrationIdx >= 0 {
				if seen[tr.NarrationIdx] {
					t.Errorf("match %s: two truth events share narration %d", m.ID, tr.NarrationIdx)
				}
				seen[tr.NarrationIdx] = true
			}
		}
		// Every goal kind truth event has a subject of the right team.
		for _, tr := range m.Truth {
			if IsGoal(tr.Kind) && tr.Subject == nil {
				t.Errorf("match %s: goal without scorer", m.ID)
			}
		}
	}
}

func TestPaperCoverage(t *testing.T) {
	c := Generate(DefaultConfig())
	found := map[string]bool{}
	for _, m := range c.Matches {
		for i := range m.Truth {
			tr := &m.Truth[i]
			subj := ""
			if tr.Subject != nil {
				subj = tr.Subject.Short
			}
			switch {
			case IsGoal(tr.Kind) && subj == "Messi":
				found["messi goal"] = true
			case KindIn(tr.Kind, YellowCardKinds) && subj == "Alex":
				found["alex yellow"] = true
			case KindIn(tr.Kind, NegativeKinds) && subj == "Henry":
				found["henry negative"] = true
			case tr.Kind == KindFoul && subj == "Daniel" && tr.Object != nil && tr.Object.Short == "Florent":
				found["daniel fouls florent"] = true
			case tr.Kind == KindFoul && subj == "Florent" && tr.Object != nil && tr.Object.Short == "Daniel":
				found["florent fouls daniel"] = true
			case KindIn(tr.Kind, SaveKinds) && tr.SubjectTeam != nil && tr.SubjectTeam.Name == "Barcelona":
				found["barcelona save"] = true
			case IsGoal(tr.Kind) && ConcedingTeam(m, tr) != nil && ConcedingTeam(m, tr).Name == "Real Madrid":
				found["goal to casillas"] = true
			case subj == "Ronaldo":
				found["ronaldo event"] = true
			}
		}
	}
	for _, want := range []string{
		"messi goal", "alex yellow", "henry negative", "daniel fouls florent",
		"florent fouls daniel", "barcelona save", "goal to casillas", "ronaldo event",
	} {
		if !found[want] {
			t.Errorf("coverage event missing: %s", want)
		}
	}
}

func TestKindHelpers(t *testing.T) {
	if !IsGoal(KindHeaderGoal) || IsGoal(KindFoul) {
		t.Error("IsGoal wrong")
	}
	if !KindIn(KindSecondYellow, PunishmentKinds) {
		t.Error("second yellow not a punishment")
	}
	if !IsDefencePosition("CB") || IsDefencePosition("CF") {
		t.Error("IsDefencePosition wrong")
	}
}

func TestKindsMatchOntology(t *testing.T) {
	// Every EventKind string must be a declared ontology class, and the
	// kind groupings must agree with the class hierarchy.
	o := BuildOntology()
	all := [][]EventKind{GoalKinds, PunishmentKinds, ShootKinds, SaveKinds, YellowCardKinds, NegativeKinds}
	for _, set := range all {
		for _, k := range set {
			if o.ClassByIRI(o.IRI(string(k))) == nil {
				t.Errorf("kind %s is not an ontology class", k)
			}
		}
	}
}

func TestCreditedAndConcedingTeam(t *testing.T) {
	teams := BuildTeams()
	m := &Match{Home: teams[0], Away: teams[1]}
	regular := &TruthEvent{Kind: KindGoal, SubjectTeam: teams[0]}
	if CreditedTeam(m, regular) != teams[0] || ConcedingTeam(m, regular) != teams[1] {
		t.Error("regular goal attribution wrong")
	}
	own := &TruthEvent{Kind: KindOwnGoal, SubjectTeam: teams[0]}
	if CreditedTeam(m, own) != teams[1] || ConcedingTeam(m, own) != teams[0] {
		t.Error("own goal attribution wrong")
	}
}

func TestNarrationGoalWordAbsence(t *testing.T) {
	// The linchpin of the Q-1 result: goal narrations must not contain the
	// word "goal" (UEFA writes "X scores!").
	c := Generate(DefaultConfig())
	for _, m := range c.Matches {
		for _, tr := range m.Truth {
			if !IsGoal(tr.Kind) || tr.NarrationIdx < 0 {
				continue
			}
			text := strings.ToLower(m.Narrations[tr.NarrationIdx].Text)
			if strings.Contains(text, "goal") {
				t.Errorf("goal narration contains 'goal': %q", text)
			}
		}
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"Lionel Messi":      "Messi",
		"Xavi Hernandez":    "Xavi",
		"Daniel Alves":      "Daniel",
		"Cristiano Ronaldo": "Ronaldo",
		"Edwin van der Sar": "Van der Sar",
		"Alex":              "Alex",
		"Raul Gonzalez":     "Raul",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOntologyPersistenceRoundTrip(t *testing.T) {
	// The full 79/95 soccer ontology must survive TBox serialization.
	src := BuildOntology()
	back, err := owl.FromGraph(src.TBoxGraph(), rdf.NSSoccer)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	ss, bs := src.Stats(), back.Stats()
	if bs.Classes != 79 || bs.Properties() != 95 {
		t.Errorf("reloaded ontology: %d classes, %d properties", bs.Classes, bs.Properties())
	}
	if bs.DisjointPairs != ss.DisjointPairs {
		t.Errorf("disjoint pairs: %d vs %d", bs.DisjointPairs, ss.DisjointPairs)
	}
	// Spot-check deep hierarchy and domains.
	if p := back.Property("actorOfRedCard"); p == nil || len(p.Parents) == 0 {
		t.Error("actorOfRedCard hierarchy lost")
	}
	if p := back.Property("scoredToGoalkeeper"); p == nil || p.Range != back.IRI("GoalkeeperPlayer") {
		t.Error("scoredToGoalkeeper range lost")
	}
}
