package soccer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config controls corpus generation. The defaults reproduce the paper's
// corpus scale: 10 matches with roughly 118 narrations each (the paper
// crawled 10 UEFA matches totalling 1182 narrations, of which 902 yielded
// events).
type Config struct {
	// Matches is the number of games to simulate.
	Matches int
	// Seed makes generation deterministic.
	Seed int64
	// NarrationsPerMatch is the approximate total per game, padded with
	// color commentary beyond the generated events.
	NarrationsPerMatch int
	// PaperCoverage fixes the first two pairings (Chelsea-Barcelona and
	// Real Madrid-Manchester United) and injects the handful of events the
	// Table 3 queries name — a Messi goal, an Alex yellow card, a Henry
	// offside, the Daniel/Florent fouls of Table 6, a goal conceded by
	// Casillas and a Valdes save — so every evaluation query has a
	// non-empty relevant set, as the paper's real crawl did.
	PaperCoverage bool
}

// DefaultConfig mirrors the paper's corpus scale.
func DefaultConfig() Config {
	return Config{Matches: 10, Seed: 42, NarrationsPerMatch: 118, PaperCoverage: true}
}

// Generate simulates a corpus under the config.
func Generate(cfg Config) *Corpus {
	if cfg.Matches <= 0 {
		cfg.Matches = 10
	}
	if cfg.NarrationsPerMatch <= 0 {
		cfg.NarrationsPerMatch = 118
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	teams := BuildTeams()
	byName := map[string]*Team{}
	for _, t := range teams {
		byName[t.Name] = t
	}
	c := &Corpus{Teams: teams}
	day := 0
	for i := 0; i < cfg.Matches; i++ {
		// Draw order (teams before date) is load-bearing: it pins the rng
		// stream, and with it the byte-exact default corpus the evaluation
		// tables are measured against.
		covered := cfg.PaperCoverage && cfg.Matches >= 2 && i < coverageFixtures
		var home, away *Team
		if !covered {
			hi := rng.Intn(len(teams))
			ai := rng.Intn(len(teams) - 1)
			if ai >= hi {
				ai++
			}
			home, away = teams[hi], teams[ai]
		}
		day += rng.Intn(3) + 1
		date := fmt.Sprintf("2009-%02d-%02d", 3+day/28, 1+day%28)
		if covered {
			if m, ok := GenerateCoverageMatch(rng, byName, i, date); ok {
				c.Matches = append(c.Matches, m)
				continue
			}
		}
		c.Matches = append(c.Matches, GenerateMatch(rng, home, away, date))
	}
	return c
}

// coverageFixtures is the number of forced fixtures GenerateCoverageMatch
// knows about.
const coverageFixtures = 2

// GenerateMatch simulates one match between home and away on the given
// date, drawing every event from rng. It is the streaming per-match hook:
// internal/corpus calls it once per emitted page so corpus generation
// never has to materialize more than one match at a time.
func GenerateMatch(rng *rand.Rand, home, away *Team, date string) *Match {
	return generateMatch(rng, home, away, date, nil)
}

// GenerateCoverageMatch produces the forced paper-coverage fixture for
// corpus slot i, or ok=false when slot i carries no fixture. Slot 0 is
// Chelsea-Barcelona with the Table 3 / Table 6 query events injected
// (a Messi goal, the Alex yellow card, the Henry offside, the
// Daniel/Florent fouls, a Valdes save); slot 1 is Real Madrid-Manchester
// United with the Rooney goal and Ronaldo offside. byName must resolve
// those four squad names (BuildTeams provides them). Both Generate and
// the streaming generator route their first two matches through here, so
// every evaluation query keeps a non-empty relevant set at any corpus
// scale.
func GenerateCoverageMatch(rng *rand.Rand, byName map[string]*Team, i int, date string) (*Match, bool) {
	switch i {
	case 0:
		home, away := byName["Chelsea"], byName["Barcelona"]
		if home == nil || away == nil {
			return nil, false
		}
		return generateMatch(rng, home, away, date, []forcedEvent{
			{KindGoal, "Messi", ""},
			{KindFoul, "Alex", "Henry"},
			{KindYellowCard, "Alex", ""},
			{KindFoul, "Daniel", "Florent"},
			{KindFoul, "Florent", "Daniel"},
			{KindOffside, "Henry", ""},
			{KindSave, "Valdes", "Drogba"},
		}), true
	case 1:
		home, away := byName["Real Madrid"], byName["Manchester United"]
		if home == nil || away == nil {
			return nil, false
		}
		return generateMatch(rng, home, away, date, []forcedEvent{
			{KindGoal, "Rooney", ""},
			{KindOffside, "Ronaldo", ""},
		}), true
	}
	return nil, false
}

// forcedEvent is a query-coverage event injected by PaperCoverage.
type forcedEvent struct {
	kind EventKind
	// subj and obj are player short names resolved against both lineups.
	subj, obj string
}

// pendingEvent is an event plus ordering info before narration rendering.
type pendingEvent struct {
	kind        EventKind
	minute      int
	seq         int // within-minute order
	subj, obj   *Player
	subjT, objT *Team
	noNarration bool // basic-info only (never happens currently)
}

type matchBuilder struct {
	rng     *rand.Rand
	m       *Match
	forced  []forcedEvent
	events  []pendingEvent
	seq     int
	yellows map[*Player]int
	sentOff map[*Player]bool
}

func (b *matchBuilder) add(e pendingEvent) {
	e.seq = b.seq
	b.seq++
	b.events = append(b.events, e)
}

// weightedAttacker picks a scorer-ish player: forwards and wingers heavy.
func weightedAttacker(rng *rand.Rand, t *Team) *Player {
	// Lineup order: GK LB RB CB SW DM CM AM RW CF SS.
	weights := []int{0, 1, 1, 1, 1, 2, 3, 4, 5, 8, 7}
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return t.Players[i]
		}
		n -= w
	}
	return t.Players[len(t.Players)-1]
}

func anyOutfield(rng *rand.Rand, t *Team) *Player {
	return t.Players[1+rng.Intn(len(t.Players)-1)]
}

func generateMatch(rng *rand.Rand, home, away *Team, date string, forced []forcedEvent) *Match {
	m := &Match{
		ID:      fmt.Sprintf("%s_%s_%s", idSafe(home.Name), idSafe(away.Name), date),
		Home:    home,
		Away:    away,
		Date:    date,
		Referee: refereeNames[rng.Intn(len(refereeNames))],
	}
	b := &matchBuilder{rng: rng, m: m, forced: forced, yellows: map[*Player]int{}, sentOff: map[*Player]bool{}}

	b.generateStructure()
	b.generateGoals()
	b.generateFoulsAndCards()
	b.generateSetPiecesAndPlay()
	b.generateForced()
	b.generateSubstitutions()
	b.render()
	return m
}

func idSafe(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			out = append(out, '_')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func (b *matchBuilder) generateStructure() {
	kickoffTeam := b.m.Teams()[b.rng.Intn(2)]
	b.add(pendingEvent{kind: KindKickOff, minute: 1, subjT: kickoffTeam})
	b.add(pendingEvent{kind: KindHalfTime, minute: 45})
	b.add(pendingEvent{kind: KindFullTime, minute: 90})
}

// usedGoalMinutes tracks goal minutes so two goals never share a minute,
// keeping the running score and assist-rule joins unambiguous.
func (b *matchBuilder) freeGoalMinute(used map[int]bool) int {
	for {
		min := 2 + b.rng.Intn(88)
		if min == 45 || used[min] {
			continue
		}
		used[min] = true
		return min
	}
}

// findByShort resolves a short player name against both lineups.
func (b *matchBuilder) findByShort(short string) (*Player, *Team) {
	for _, t := range b.m.Teams() {
		if p := t.FindPlayer(short); p != nil {
			return p, t
		}
	}
	return nil, nil
}

// generateForced injects the PaperCoverage events that are not goals
// (goals are handled in generateGoals to keep the score consistent).
func (b *matchBuilder) generateForced() {
	for _, f := range b.forced {
		if isGoalKind(f.kind) {
			continue
		}
		subj, st := b.findByShort(f.subj)
		if subj == nil {
			continue
		}
		var obj *Player
		var ot *Team
		if f.obj != "" {
			obj, ot = b.findByShort(f.obj)
		}
		if f.kind == KindSave {
			// The saver denies an opponent; object team is the shooter's.
			b.add(pendingEvent{kind: f.kind, minute: 2 + b.rng.Intn(87), subj: subj, obj: obj, subjT: st, objT: ot})
			continue
		}
		objTeam := ot
		if f.kind == KindFoul && obj != nil {
			objTeam = ot
		}
		b.add(pendingEvent{kind: f.kind, minute: 2 + b.rng.Intn(87), subj: subj, obj: obj, subjT: st, objT: objTeam})
	}
}

func (b *matchBuilder) generateGoals() {
	used := map[int]bool{}
	for _, f := range b.forced {
		if !isGoalKind(f.kind) {
			continue
		}
		scorer, t := b.findByShort(f.subj)
		if scorer == nil {
			continue
		}
		minute := b.freeGoalMinute(used)
		b.add(pendingEvent{kind: f.kind, minute: minute, subj: scorer, subjT: t, objT: b.m.OpponentOf(t)})
		b.m.Goals = append(b.m.Goals, GoalInfo{Minute: minute, Scorer: scorer, Team: t})
		if t == b.m.Home {
			b.m.HomeScore++
		} else {
			b.m.AwayScore++
		}
	}
	for side, t := range b.m.Teams() {
		n := poissonish(b.rng, 1.3)
		for g := 0; g < n; g++ {
			minute := b.freeGoalMinute(used)
			scorer := weightedAttacker(b.rng, t)
			kind := KindGoal
			ownGoal := false
			switch r := b.rng.Float64(); {
			case r < 0.05:
				kind = KindOwnGoal
				ownGoal = true
				// An own goal is scored by an opponent defender but counts
				// for team t.
				opp := b.m.OpponentOf(t)
				scorer = opp.Players[1+b.rng.Intn(4)] // a defender
			case r < 0.20:
				kind = KindHeaderGoal
			case r < 0.30:
				kind = KindPenaltyGoal
			case r < 0.40:
				kind = KindFreeKickGoal
			}
			scorerTeam := t
			if ownGoal {
				scorerTeam = b.m.OpponentOf(t)
			}
			// Assist pass in the same minute for ~65% of open-play goals.
			if (kind == KindGoal || kind == KindHeaderGoal) && b.rng.Float64() < 0.65 {
				passer := weightedAttacker(b.rng, t)
				for passer == scorer {
					passer = weightedAttacker(b.rng, t)
				}
				passKind := []EventKind{KindLongPass, KindShortPass, KindCrossPass, KindThroughPass}[b.rng.Intn(4)]
				b.add(pendingEvent{kind: passKind, minute: minute, subj: passer, obj: scorer, subjT: t, objT: t})
				// The pass-then-goal pair entails an assist (the Fig. 6 rule);
				// record it as narrationless ground truth so the evaluation can
				// credit indices that surface inferred events.
				b.add(pendingEvent{kind: KindAssist, minute: minute, subj: passer, obj: scorer, subjT: t, objT: t, noNarration: true})
			}
			if kind == KindPenaltyGoal {
				taker := scorer
				b.add(pendingEvent{kind: KindPenaltyKick, minute: minute, subj: taker, subjT: t})
			}
			b.add(pendingEvent{
				kind: kind, minute: minute, subj: scorer,
				subjT: scorerTeam, objT: b.m.OpponentOf(t),
			})
			b.m.Goals = append(b.m.Goals, GoalInfo{Minute: minute, Scorer: scorer, Team: t, OwnGoal: ownGoal})
			if side == 0 {
				b.m.HomeScore++
			} else {
				b.m.AwayScore++
			}
		}
	}
}

func (b *matchBuilder) generateFoulsAndCards() {
	n := 8 + b.rng.Intn(6)
	for i := 0; i < n; i++ {
		minute := 2 + b.rng.Intn(87)
		ft := b.m.Teams()[b.rng.Intn(2)]
		ot := b.m.OpponentOf(ft)
		fouler := anyOutfield(b.rng, ft)
		if b.sentOff[fouler] {
			continue
		}
		fouled := anyOutfield(b.rng, ot)
		if b.rng.Float64() < 0.08 {
			b.add(pendingEvent{kind: KindHandBall, minute: minute, subj: fouler, subjT: ft, objT: ot})
		} else {
			b.add(pendingEvent{kind: KindFoul, minute: minute, subj: fouler, obj: fouled, subjT: ft, objT: ot})
			// Occasional injury to the fouled player.
			if b.rng.Float64() < 0.08 {
				b.add(pendingEvent{kind: KindInjury, minute: minute, subj: fouler, obj: fouled, subjT: ft, objT: ot})
			}
		}
		// Card for the fouler.
		switch r := b.rng.Float64(); {
		case r < 0.30:
			b.yellows[fouler]++
			if b.yellows[fouler] >= 2 {
				b.add(pendingEvent{kind: KindSecondYellow, minute: minute, subj: fouler, subjT: ft})
				b.sentOff[fouler] = true
			} else {
				var cardObj *Player
				if b.rng.Float64() < 0.5 {
					cardObj = fouled
				}
				b.add(pendingEvent{kind: KindYellowCard, minute: minute, subj: fouler, obj: cardObj, subjT: ft})
			}
		case r < 0.33:
			b.add(pendingEvent{kind: KindRedCard, minute: minute, subj: fouler, subjT: ft})
			b.sentOff[fouler] = true
		}
	}
}

func (b *matchBuilder) generateSetPiecesAndPlay() {
	type spec struct {
		kind    EventKind
		min     int
		spread  int
		needObj bool
		pick    func(*Team) *Player
	}
	rng := b.rng
	specs := []spec{
		{KindOffside, 2, 4, false, func(t *Team) *Player { return weightedAttacker(rng, t) }},
		{KindMissedGoal, 4, 4, false, func(t *Team) *Player { return weightedAttacker(rng, t) }},
		{KindShoot, 3, 4, false, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindShotOnTarget, 2, 3, false, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindShotOffTarget, 2, 3, false, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindHeaderShot, 1, 2, false, func(t *Team) *Player { return weightedAttacker(rng, t) }},
		{KindTackle, 3, 3, true, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindInterception, 2, 3, false, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindClearance, 2, 3, false, func(t *Team) *Player { return t.Players[1+rng.Intn(4)] }},
		{KindDribble, 2, 3, true, func(t *Team) *Player { return weightedAttacker(rng, t) }},
		{KindCorner, 6, 5, false, func(t *Team) *Player { return t.Players[5+rng.Intn(6)] }},
		{KindFreeKick, 2, 3, false, func(t *Team) *Player { return anyOutfield(rng, t) }},
		{KindThrowIn, 2, 3, false, func(t *Team) *Player { return t.Players[1+rng.Intn(2)] }},
	}
	for _, sp := range specs {
		n := sp.min + rng.Intn(sp.spread)
		for i := 0; i < n; i++ {
			minute := 2 + rng.Intn(87)
			t := b.m.Teams()[rng.Intn(2)]
			subj := sp.pick(t)
			var obj *Player
			var objT *Team
			if sp.needObj {
				objT = b.m.OpponentOf(t)
				obj = anyOutfield(rng, objT)
			}
			b.add(pendingEvent{kind: sp.kind, minute: minute, subj: subj, obj: obj, subjT: t, objT: objT})
		}
	}
	// Saves: the goalkeeper denies an opposing attacker.
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		minute := 2 + rng.Intn(87)
		t := b.m.Teams()[rng.Intn(2)]
		keeper := t.Goalkeeper()
		shooter := weightedAttacker(rng, b.m.OpponentOf(t))
		kind := KindSave
		if rng.Float64() < 0.1 {
			kind = KindPenaltySave
		}
		b.add(pendingEvent{kind: kind, minute: minute, subj: keeper, obj: shooter, subjT: t, objT: b.m.OpponentOf(t)})
	}
}

func (b *matchBuilder) generateSubstitutions() {
	for _, t := range b.m.Teams() {
		n := 2 + b.rng.Intn(2)
		for i := 0; i < n; i++ {
			minute := 46 + b.rng.Intn(43)
			off := anyOutfield(b.rng, t)
			// The replacement is a bench player we invent on the fly: the
			// squads carry only the starting XI, so benches get synthetic
			// names stable per team and slot.
			on := &Player{
				Name:     fmt.Sprintf("%s Sub%d", t.Name, i+1),
				Short:    fmt.Sprintf("%sSub%d", idSafe(t.Name), i+1),
				Position: off.Position,
				Shirt:    12 + i,
			}
			b.add(pendingEvent{kind: KindSubstitution, minute: minute, subj: off, obj: on, subjT: t})
			b.m.Substitutions = append(b.m.Substitutions, SubInfo{Minute: minute, Off: off, On: on, Team: t})
		}
	}
}

// render sorts events, renders narrations with running score, fills the
// truth log, and pads with color commentary.
func (b *matchBuilder) render() {
	sort.SliceStable(b.events, func(i, j int) bool {
		if b.events[i].minute != b.events[j].minute {
			return b.events[i].minute < b.events[j].minute
		}
		return b.events[i].seq < b.events[j].seq
	})
	homeGoals, awayGoals := 0, 0
	for _, e := range b.events {
		if isGoalKind(e.kind) {
			// The score prefix reflects the state after this goal.
			if b.goalCountsForHome(e) {
				homeGoals++
			} else {
				awayGoals++
			}
		}
		ctx := &narrationContext{
			subj: e.subj, obj: e.obj, subjT: e.subjT, objT: e.objT,
			homeGoals: homeGoals, awayGoals: awayGoals, rng: b.rng,
		}
		text := narrate(e.kind, ctx)
		idx := -1
		if !e.noNarration && text != "" {
			idx = len(b.m.Narrations)
			b.m.Narrations = append(b.m.Narrations, Narration{Minute: e.minute, Text: text})
		}
		b.m.Truth = append(b.m.Truth, TruthEvent{
			Kind: e.kind, Minute: e.minute,
			Subject: e.subj, Object: e.obj,
			SubjectTeam: e.subjT, ObjectTeam: e.objT,
			NarrationIdx: idx,
		})
	}
	// Pad with color commentary, then re-sort narrations by minute while
	// keeping truth indexes valid via a permutation.
	target := 118
	for len(b.m.Narrations) < target {
		minute := 1 + b.rng.Intn(90)
		b.m.Narrations = append(b.m.Narrations, Narration{Minute: minute, Text: colorNarration(b.rng, b.m)})
	}
	b.sortNarrations()
}

// goalCountsForHome reports whether the goal event increments the home
// score. For own goals the subject plays for the conceding side.
func (b *matchBuilder) goalCountsForHome(e pendingEvent) bool {
	if e.kind == KindOwnGoal {
		return e.subjT == b.m.Away
	}
	return e.subjT == b.m.Home
}

func isGoalKind(k EventKind) bool {
	switch k {
	case KindGoal, KindHeaderGoal, KindPenaltyGoal, KindFreeKickGoal, KindOwnGoal:
		return true
	}
	return false
}

// sortNarrations orders the feed by minute (stable) and remaps the truth
// events' narration indexes accordingly.
func (b *matchBuilder) sortNarrations() {
	type tagged struct {
		n    Narration
		orig int
	}
	ts := make([]tagged, len(b.m.Narrations))
	for i, n := range b.m.Narrations {
		ts[i] = tagged{n: n, orig: i}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].n.Minute < ts[j].n.Minute })
	remap := make(map[int]int, len(ts))
	for newIdx, t := range ts {
		remap[t.orig] = newIdx
		b.m.Narrations[newIdx] = t.n
	}
	// Note: the in-place write above is safe because ts holds copies.
	for i := range b.m.Truth {
		if b.m.Truth[i].NarrationIdx >= 0 {
			b.m.Truth[i].NarrationIdx = remap[b.m.Truth[i].NarrationIdx]
		}
	}
}

// poissonish draws a small non-negative count with the given mean, capped
// at 4, using Knuth's inverse-transform sampling of a Poisson distribution.
func poissonish(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l || k >= 4 {
			return k
		}
		k++
	}
}
