// Package wsd implements the word-sense disambiguation module the paper
// leaves as future work (Section 8: "The performance will be further
// improved by implementing a word disambiguation module for lexical
// ambiguities").
//
// The algorithm is simplified Lesk: each ambiguous lemma carries a sense
// inventory whose senses have signature words; a query occurrence is
// assigned the sense whose signature overlaps the query context most, with
// the domain sense as the default (the corpus is a soccer knowledge base,
// so domain senses are the priors). Out-of-domain winners are dropped from
// the retrieval query — "save money on tickets" should not rank goalkeeper
// saves.
package wsd

import (
	"strings"

	"repro/internal/index"
)

// Sense is one meaning of an ambiguous word.
type Sense struct {
	// ID names the sense, e.g. "save/goalkeeping".
	ID string
	// Gloss is a human-readable definition.
	Gloss string
	// Signature are context words indicating this sense.
	Signature []string
	// InDomain marks senses belonging to the soccer knowledge base.
	InDomain bool
}

// Inventory maps an ambiguous lemma to its senses. The first sense is the
// default (chosen when context decides nothing).
type Inventory map[string][]Sense

// SoccerInventory covers the lexical ambiguities the soccer query log can
// plausibly hit.
var SoccerInventory = Inventory{
	"save": {
		{ID: "save/goalkeeping", Gloss: "a goalkeeper stopping a shot", InDomain: true,
			Signature: []string{"goalkeeper", "keeper", "shot", "stop", "denies", "goal", "penalty"}},
		{ID: "save/economize", Gloss: "to spend less money", InDomain: false,
			Signature: []string{"money", "price", "ticket", "tickets", "cost", "cheap", "discount", "bank"}},
	},
	"goal": {
		{ID: "goal/score", Gloss: "the ball crossing the line", InDomain: true,
			Signature: []string{"scores", "scored", "net", "keeper", "match", "minute", "header"}},
		{ID: "goal/objective", Gloss: "an aim or objective", InDomain: false,
			Signature: []string{"project", "plan", "achieve", "career", "business", "target", "quarterly"}},
	},
	"cross": {
		{ID: "cross/delivery", Gloss: "a pass from the flank into the box", InDomain: true,
			Signature: []string{"box", "winger", "delivers", "header", "flank", "ball"}},
		{ID: "cross/angry", Gloss: "annoyed", InDomain: false,
			Signature: []string{"angry", "upset", "annoyed", "furious"}},
	},
	"pitch": {
		{ID: "pitch/field", Gloss: "the playing field", InDomain: true,
			Signature: []string{"grass", "field", "stadium", "players", "match"}},
		{ID: "pitch/sales", Gloss: "a persuasive presentation", InDomain: false,
			Signature: []string{"sales", "investor", "deck", "startup", "meeting"}},
	},
	"booked": {
		{ID: "booked/carded", Gloss: "shown a yellow card", InDomain: true,
			Signature: []string{"yellow", "card", "referee", "foul", "challenge"}},
		{ID: "booked/reserved", Gloss: "made a reservation", InDomain: false,
			Signature: []string{"hotel", "flight", "table", "room", "restaurant", "holiday"}},
	},
	"corner": {
		{ID: "corner/kick", Gloss: "a corner kick", InDomain: true,
			Signature: []string{"delivers", "kick", "header", "box", "flag"}},
		{ID: "corner/street", Gloss: "a street corner or market corner", InDomain: false,
			Signature: []string{"street", "shop", "market", "block"}},
	},
}

// Decision records how one query token was disambiguated.
type Decision struct {
	Token string
	Sense Sense
	// Overlap is the signature overlap that won (0 = default sense).
	Overlap int
	// Dropped reports whether the token was removed from the domain query.
	Dropped bool
}

// Disambiguate picks the sense of token given the other context tokens.
// The boolean is false when the token is not ambiguous in the inventory.
func Disambiguate(token string, context []string, inv Inventory) (Sense, int, bool) {
	senses, ok := inv[strings.ToLower(token)]
	if !ok || len(senses) == 0 {
		return Sense{}, 0, false
	}
	ctx := map[string]bool{}
	for _, c := range context {
		ctx[strings.ToLower(c)] = true
	}
	best := senses[0]
	bestOverlap := 0
	for _, s := range senses {
		overlap := 0
		for _, sig := range s.Signature {
			if ctx[sig] {
				overlap++
			}
		}
		if overlap > bestOverlap {
			best = s
			bestOverlap = overlap
		}
	}
	return best, bestOverlap, true
}

// RefineQuery disambiguates every token of a keyword query and removes the
// tokens whose winning sense is out of domain, returning the refined query
// and the decisions taken. Unambiguous tokens pass through untouched.
func RefineQuery(query string, inv Inventory) (string, []Decision) {
	tokens := index.Tokenize(strings.ToLower(query))
	var kept []string
	var decisions []Decision
	for i, tok := range tokens {
		context := make([]string, 0, len(tokens)-1)
		context = append(context, tokens[:i]...)
		context = append(context, tokens[i+1:]...)
		sense, overlap, ambiguous := Disambiguate(tok, context, inv)
		if !ambiguous {
			kept = append(kept, tok)
			continue
		}
		d := Decision{Token: tok, Sense: sense, Overlap: overlap}
		if sense.InDomain {
			kept = append(kept, tok)
		} else {
			d.Dropped = true
		}
		decisions = append(decisions, d)
	}
	return strings.Join(kept, " "), decisions
}
