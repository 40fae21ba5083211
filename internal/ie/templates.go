package ie

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/soccer"
)

// Template is one hand-crafted extraction pattern, matched against the
// NER-tagged narration. Placeholders:
//
//	{S}  the subject player tag
//	{O}  the object player tag
//	{T}  the subject's team tag
//	{OT} the object's team tag
//
// A pattern matches as a prefix of the tagged narration (after the optional
// "(1 - 0) " running-score prefix), so trailing flavor text never blocks
// extraction.
type Template struct {
	Kind    soccer.EventKind
	Pattern string
}

// Templates is the ordered template table of the two-level lexical
// analyzer. Order matters where patterns share prefixes (the penalty save
// must precede the plain save). Every narration template the simulator can
// emit has a counterpart here; TestExtractionRecall enforces the pairing.
var Templates = []Template{
	// Goals. UEFA-style goal narrations never contain the word "goal" —
	// the observation behind Table 4's TRAD collapse on Q-1.
	{soccer.KindGoal, "{S} ({T}) scores!"},
	{soccer.KindGoal, "{S} ({T}) slots it home"},
	{soccer.KindGoal, "{S} ({T}) finds the net"},
	{soccer.KindHeaderGoal, "{S} ({T}) heads it in!"},
	{soccer.KindPenaltyGoal, "{S} ({T}) converts the penalty"},
	{soccer.KindFreeKickGoal, "{S} ({T}) curls the free-kick into"},
	{soccer.KindOwnGoal, "Disaster for {OT}! {S} turns the ball into his own net."},

	// Passes.
	{soccer.KindLongPass, "{S} ({T}) delivers a long pass to {O}"},
	{soccer.KindShortPass, "{S} ({T}) plays a short pass to {O}"},
	{soccer.KindCrossPass, "{S} ({T}) crosses to {O}"},
	{soccer.KindThroughPass, "{S} ({T}) threads a through ball to {O}"},

	// Shots.
	{soccer.KindShoot, "{S} ({T}) shoots from distance"},
	{soccer.KindShotOnTarget, "{S} ({T}) fires a shot on target"},
	{soccer.KindShotOffTarget, "{S} ({T}) drags a shot off target"},
	{soccer.KindHeaderShot, "{S} ({T}) heads the effort at goal"},

	// Saves: penalty save first, it shares the "saves" prefix.
	{soccer.KindPenaltySave, "{S} ({T}) saves the penalty from {O}"},
	{soccer.KindSave, "{S} ({T}) saves from {O}"},
	{soccer.KindSave, "Great save by {S} ({T}), denying {O}"},

	// Defensive play.
	{soccer.KindTackle, "{S} ({T}) wins the ball with a strong tackle on {O}"},
	{soccer.KindInterception, "{S} ({T}) intercepts a loose ball"},
	{soccer.KindClearance, "{S} ({T}) clears the danger"},
	{soccer.KindDribble, "{S} ({T}) dribbles past {O}"},

	// Fouls.
	{soccer.KindFoul, "{S} gives away a free-kick following a challenge on {O}"},
	{soccer.KindFoul, "{S} ({T}) fouls {O}"},
	{soccer.KindFoul, "{S} brings down {O}. Free-kick."},
	{soccer.KindHandBall, "{S} ({T}) is penalised for handball"},

	// Cards. The second-yellow template must precede the generic red card.
	{soccer.KindYellowCard, "{S} ({T}) is booked for a late challenge on {O}"},
	{soccer.KindYellowCard, "{S} ({T}) sees yellow"},
	{soccer.KindYellowCard, "{S} ({T}) is cautioned after a cynical challenge"},
	{soccer.KindSecondYellow, "{S} ({T}) is shown a second yellow and is sent off!"},
	{soccer.KindRedCard, "{S} ({T}) is sent off! Straight red."},

	// Other negative events.
	{soccer.KindOffside, "{S} ({T}) is flagged for offside"},
	{soccer.KindMissedGoal, "{S} ({T}) misses a goal from close range"},
	{soccer.KindMissedGoal, "{S} ({T}) fires wide of the post"},
	{soccer.KindMissedGoal, "{S} ({T}) blazes over the bar"},
	{soccer.KindMissedPenalty, "{S} ({T}) misses the penalty"},
	{soccer.KindInjury, "{O} ({OT}) stays down after a challenge from {S}"},

	// Neutral events.
	{soccer.KindSubstitution, "{T} substitution: {O} replaces {S}."},
	{soccer.KindCorner, "{S} ({T}) delivers the corner"},
	{soccer.KindCorner, "Corner to {T}. {S} takes it"},
	{soccer.KindFreeKick, "{S} ({T}) takes the free-kick"},
	{soccer.KindPenaltyKick, "Penalty to {T}! {S} steps up"},
	{soccer.KindThrowIn, "{S} ({T}) takes a long throw"},
	{soccer.KindGoalKick, "Goal kick for {T}. {S} will restart play"},
	{soccer.KindKickOff, "The referee blows and {T} kick off"},
	{soccer.KindHalfTime, "The referee blows for half-time."},
	{soccer.KindFullTime, "The final whistle goes."},
}

// triggerKeywords is the first analysis level (Section 3.3.2): a narration
// containing none of these phrases is discarded as UnknownEvent without
// template matching. The second level then applies the template table.
var triggerKeywords = []string{
	"scores", "slots it home", "finds the net", "heads it in", "converts the penalty",
	"curls the free-kick", "own net", "pass to", "crosses to", "through ball",
	"shoots", "shot on target", "shot off target", "effort at goal",
	"save", "saves", "tackle", "intercepts", "clears the danger", "dribbles",
	"free-kick", "fouls", "brings down", "handball", "booked", "sees yellow", "cautioned",
	"second yellow", "sent off", "offside", "misses", "fires wide", "blazes over",
	"stays down", "substitution", "replaces", "corner", "penalty", "long throw",
	"goal kick", "kick off", "half-time", "final whistle",
}

// passesLevelOne reports whether the raw narration, lower-cased as
// strings.ToLower would, contains any trigger.
func passesLevelOne(text string) bool { return levelOne.match(text) }

var levelOne = newTriggerMatcher(triggerKeywords)

// triggerMatcher is an Aho–Corasick automaton over the trigger keywords,
// compiled to a transition table, so level one reads a narration once, byte
// by byte, without lower-casing a copy. Triggers are ASCII, so only the
// bytes they use get their own symbol; every other byte, and every rune
// that does not lower-case to one of those bytes, is symbol 0, which no
// trigger contains.
type triggerMatcher struct {
	symbol  [utf8.RuneSelf]uint8 // by ASCII byte, an upper-case letter's being its lower-case one's
	symbols int
	next    []uint16 // next[state*symbols+symbol]
	final   []bool   // some trigger ends at the state
}

func newTriggerMatcher(triggers []string) *triggerMatcher {
	m := &triggerMatcher{symbols: 1}
	for _, t := range triggers {
		for i := 0; i < len(t); i++ {
			if m.symbol[t[i]] == 0 {
				m.symbol[t[i]] = uint8(m.symbols)
				m.symbols++
			}
		}
	}
	for u := 'A'; u <= 'Z'; u++ {
		m.symbol[u] = m.symbol[unicode.ToLower(u)]
	}
	// First the trie: a transition to 0, the root, means no child yet.
	m.next = make([]uint16, m.symbols)
	m.final = []bool{false}
	for _, t := range triggers {
		s := 0
		for i := 0; i < len(t); i++ {
			at := s*m.symbols + int(m.symbol[t[i]])
			if m.next[at] == 0 {
				m.next[at] = uint16(len(m.final))
				m.next = append(m.next, make([]uint16, m.symbols)...)
				m.final = append(m.final, false)
			}
			s = int(m.next[at])
		}
		m.final[s] = true
	}
	// Then, breadth first, each state's missing transitions are its failure
	// state's, which is shallower and so already complete.
	fail := make([]uint16, len(m.final))
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		for c := 0; c < m.symbols; c++ {
			// via is where s's failure state goes on c. The root has no
			// failure state: its children fail to it, and its missing
			// transitions stay at it.
			var via uint16
			if s != 0 {
				via = m.next[int(fail[s])*m.symbols+c]
			}
			at := s*m.symbols + c
			child := m.next[at]
			if child == 0 {
				m.next[at] = via
				continue
			}
			fail[child] = via
			m.final[child] = m.final[child] || m.final[via]
			queue = append(queue, int(child))
		}
	}
	return m
}

func (m *triggerMatcher) match(text string) bool {
	s := 0
	for i := 0; i < len(text); {
		var c uint8
		if b := text[i]; b < utf8.RuneSelf {
			c = m.symbol[b]
			i++
		} else {
			// A rune such as U+212A KELVIN SIGN lower-cases to ASCII;
			// invalid UTF-8 decodes to U+FFFD, as strings.ToLower reads it.
			r, size := utf8.DecodeRuneInString(text[i:])
			if r = unicode.ToLower(r); r < utf8.RuneSelf {
				c = m.symbol[r]
			}
			i += size
		}
		s = int(m.next[s*m.symbols+int(c)])
		if m.final[s] {
			return true
		}
	}
	return false
}

// slot is a template placeholder.
type slot uint8

const (
	slotS  slot = iota // {S}
	slotO              // {O}
	slotT              // {T}
	slotOT             // {OT}
	numSlots
)

var slotNames = map[string]slot{"S": slotS, "O": slotO, "T": slotT, "OT": slotOT}

// bindings holds the tags a template match bound, by slot; "" for a slot
// the template does not have.
type bindings [numSlots]string

// compiledTemplate is the token form of a pattern: alternating literal
// segments and placeholder slots.
type compiledTemplate struct {
	kind soccer.EventKind
	// parts are the literal segments; between parts[i] and parts[i+1] sits
	// slots[i].
	parts []string
	slots []slot
}

var compiledTemplates = compileAll()

// templates is the dispatcher over compiledTemplates that level two runs.
var templates = newDispatcher(compiledTemplates)

func compileAll() []compiledTemplate {
	out := make([]compiledTemplate, len(Templates))
	for i, t := range Templates {
		out[i] = compileTemplate(t)
	}
	return out
}

func compileTemplate(t Template) compiledTemplate {
	c := compiledTemplate{kind: t.Kind}
	rest := t.Pattern
	for {
		i := strings.IndexByte(rest, '{')
		if i < 0 {
			c.parts = append(c.parts, rest)
			return c
		}
		j := strings.IndexByte(rest, '}')
		s, ok := slotNames[rest[i+1:j]]
		if !ok {
			panic("ie: unknown template slot " + rest[i:j+1] + " in " + t.Pattern)
		}
		c.parts = append(c.parts, rest[:i])
		c.slots = append(c.slots, s)
		rest = rest[j+1:]
	}
}

// match attempts the template against tagged text. On success it returns
// the slot bindings.
func (c compiledTemplate) match(tagged string) (bindings, bool) {
	var bind bindings
	if !c.matchInto(tagged, &bind) {
		return bindings{}, false
	}
	return bind, true
}

// matchInto is match writing each slot it binds into bind, over what bind
// held; on failure bind is partly written.
func (c compiledTemplate) matchInto(tagged string, bind *bindings) bool {
	rest := tagged
	for i, lit := range c.parts {
		if !strings.HasPrefix(rest, lit) {
			return false
		}
		rest = rest[len(lit):]
		if i < len(c.slots) {
			tag, after, ok := readTag(rest)
			if !ok {
				return false
			}
			s := c.slots[i]
			if isTeamSlot(s) != isTeamTag(tag) {
				return false
			}
			bind[s] = tag
			rest = after
		}
	}
	return true
}

func isTeamSlot(s slot) bool { return s == slotT || s == slotOT }

// dispatcher finds the first template of a table, in table order, that
// matches a tagged narration, without trying every template in turn.
// Most templates begin "{S} ({T}) ": a player tag, then its team's tag in
// parentheses. The dispatcher reads that prefix off the narration once,
// and of the templates that share it tries only those whose next literal
// begins with the byte that follows it; of the others, only those whose
// first literal begins with the narration's first byte.
type dispatcher struct {
	// next[b] lists, in table order, the templates a narration with the
	// prefix can match when byte b follows the prefix; next[256] when
	// nothing does. Each list holds the templates without the prefix that
	// first['<'] holds.
	next [257][]candidate
	// first[b] lists, in table order, the templates without the prefix
	// that a narration beginning with byte b can match: those whose first
	// literal begins with b or is empty; first[256] those an empty
	// narration can match.
	first [257][]candidate
}

// candidate is one template of a dispatcher's lists.
type candidate struct {
	kind soccer.EventKind
	// prefixed marks a template that begins with the prefix; tmpl is then
	// what follows the prefix, and head the prefix's two slots.
	prefixed bool
	head     [2]slot
	tmpl     compiledTemplate
}

func newDispatcher(table []compiledTemplate) *dispatcher {
	d := &dispatcher{}
	var all []candidate
	for _, ct := range table {
		c := candidate{kind: ct.kind, tmpl: ct}
		if len(ct.slots) >= 2 && ct.parts[0] == "" && !isTeamSlot(ct.slots[0]) &&
			ct.parts[1] == " (" && isTeamSlot(ct.slots[1]) && strings.HasPrefix(ct.parts[2], ") ") {
			c.prefixed, c.head = true, [2]slot{ct.slots[0], ct.slots[1]}
			c.tmpl = compiledTemplate{kind: ct.kind, parts: append([]string{ct.parts[2][2:]}, ct.parts[3:]...), slots: ct.slots[2:]}
		}
		all = append(all, c)
	}
	// begins reports whether a text that begins with byte b can begin
	// with the literal; b 256 stands for the empty text.
	begins := func(lit string, b int) bool { return lit == "" || b < 256 && lit[0] == byte(b) }
	for b := range d.next {
		for _, c := range all {
			if lit := c.tmpl.parts[0]; c.prefixed && begins(lit, b) || !c.prefixed && begins(lit, '<') {
				d.next[b] = append(d.next[b], c)
			}
			if lit := c.tmpl.parts[0]; !c.prefixed && begins(lit, b) {
				d.first[b] = append(d.first[b], c)
			}
		}
	}
	return d
}

// match returns the kind and bindings of the first template in table
// order that matches the tagged narration.
func (d *dispatcher) match(tagged string) (soccer.EventKind, bindings, bool) {
	var cands []candidate
	player, team, rest, ok := readPrefix(tagged)
	switch {
	case ok && rest == "":
		cands = d.next[256]
	case ok:
		cands = d.next[rest[0]]
	case tagged == "":
		cands = d.first[256]
	default:
		cands = d.first[tagged[0]]
	}
	for i := range cands {
		c := &cands[i]
		var bind bindings
		text := tagged
		if c.prefixed {
			bind[c.head[0]], bind[c.head[1]] = player, team
			text = rest
		}
		if c.tmpl.matchInto(text, &bind) {
			return c.kind, bind, true
		}
	}
	return "", bindings{}, false
}

// readPrefix reads the dispatcher's common prefix, a player tag and a team
// tag as "<t1p5> (<t1>) ", off tagged.
func readPrefix(tagged string) (player, team, rest string, ok bool) {
	player, rest, ok = readTag(tagged)
	if !ok || isTeamTag(player) || !strings.HasPrefix(rest, " (") {
		return "", "", "", false
	}
	team, rest, ok = readTag(rest[2:])
	if !ok || !isTeamTag(team) || !strings.HasPrefix(rest, ") ") {
		return "", "", "", false
	}
	return player, team, rest[2:], true
}

// readTag consumes a leading "<...>" tag.
func readTag(s string) (tag, rest string, ok bool) {
	if len(s) == 0 || s[0] != '<' {
		return "", "", false
	}
	j := strings.IndexByte(s, '>')
	if j < 0 {
		return "", "", false
	}
	return s[:j+1], s[j+1:], true
}

// isTeamTag distinguishes "<t1>" from "<t1p5>".
func isTeamTag(tag string) bool { return !strings.Contains(tag, "p") }
