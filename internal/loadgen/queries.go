// Package loadgen generates the query pools the benchmark and the tests
// run: realistic, popularity-ranked queries templated from a corpus's own
// vocabulary, in a chosen mix of keyword, phrase, fielded, fuzzy and
// spell-correction classes. It only generates; each caller drives the
// pool against an engine in its own loop.
package loadgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
)

// Class names one query template family. The mix mirrors the query-log
// shape real search frontends see: mostly plain keywords, a steady tail
// of quoted phrases, fielded power-user queries, fuzzy typo matches and
// spell-correction probes.
type Class string

const (
	// ClassKeyword is a plain multi-token keyword query.
	ClassKeyword Class = "keyword"
	// ClassPhrase carries a quoted phrase ("yellow card" chelsea).
	ClassPhrase Class = "phrase"
	// ClassField restricts a term to one index field (subjectPlayer:messi).
	ClassField Class = "field"
	// ClassFuzzy carries a misspelled token with the ~ edit-distance
	// operator (mesi~ goal).
	ClassFuzzy Class = "fuzzy"
	// ClassSuggest is a spell-correction probe served by Engine.Suggest /
	// GET /v1/suggest rather than the search path.
	ClassSuggest Class = "suggest"
)

// Query is one workload item: the class it was templated from and the
// query text to execute.
type Query struct {
	Class Class
	Text  string
}

// Vocabulary is the term pool queries are templated from. Drawing it from
// the corpus generator's own universe guarantees a realistic hit profile:
// hot teams appear in hot queries, and every player queried actually
// exists somewhere in the index.
type Vocabulary struct {
	// Teams lists team names in popularity-rank order (hottest first), as
	// corpus.Universe orders them.
	Teams []string
	// Players lists player surnames, grouped by team in team-rank order.
	Players []string
	// Events lists event words usable as bare keywords.
	Events []string
	// Phrases lists multi-word event phrases for the quoted-phrase class.
	Phrases []string
}

// VocabFromUniverse extracts the query vocabulary from a generator's
// league. Team order (and therefore player order) follows the universe's
// popularity rank, so low vocabulary indices are the corpus's hot head.
func VocabFromUniverse(u *corpus.Universe) Vocabulary {
	v := Vocabulary{
		Events:  []string{"goal", "foul", "offside", "save", "penalty", "corner", "tackle", "header"},
		Phrases: []string{"yellow card", "red card", "free kick", "corner kick", "own goal", "header goal"},
	}
	for _, t := range u.Teams {
		v.Teams = append(v.Teams, t.Name)
		for _, p := range t.Players {
			v.Players = append(v.Players, p.Short)
		}
	}
	return v
}

// DefaultMix is the standard class weighting (parts, not percents):
// keyword-dominant with a realistic advanced-syntax tail.
var DefaultMix = map[Class]int{
	ClassKeyword: 50,
	ClassPhrase:  15,
	ClassField:   15,
	ClassFuzzy:   10,
	ClassSuggest: 10,
}

// GenerateQueries templates n queries from vocab with the given class mix
// (nil means DefaultMix). Generation is deterministic in (vocab, mix, n,
// seed). Vocabulary draws are head-biased — low-rank teams and players
// are picked more often — so the emitted list is itself a popularity
// ranking: a Zipf selector over its indices yields a
// workload whose hot queries hit hot entities, the profile a query cache
// actually faces.
func GenerateQueries(vocab Vocabulary, mix map[Class]int, n int, seed int64) []Query {
	if mix == nil {
		mix = DefaultMix
	}
	rng := rand.New(rand.NewSource(seed))
	// Flatten the mix into a weighted class lottery. Iterate classes in a
	// fixed order — map iteration order would break determinism.
	var lottery []Class
	for _, c := range []Class{ClassKeyword, ClassPhrase, ClassField, ClassFuzzy, ClassSuggest} {
		for i := 0; i < mix[c]; i++ {
			lottery = append(lottery, c)
		}
	}
	if len(lottery) == 0 || len(vocab.Players) == 0 || len(vocab.Teams) == 0 {
		return nil
	}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		c := lottery[rng.Intn(len(lottery))]
		out = append(out, Query{Class: c, Text: template(rng, c, vocab)})
	}
	return out
}

// headPick biases selection toward low indices (the popularity head):
// squaring a uniform [0,1) draw halves the median index, mirroring the
// corpus's own Zipf team skew without needing a second Zipf source.
func headPick(rng *rand.Rand, n int) int {
	f := rng.Float64()
	return int(f * f * float64(n))
}

func pickPlayer(rng *rand.Rand, v Vocabulary) string {
	return strings.ToLower(v.Players[headPick(rng, len(v.Players))])
}

func pickTeam(rng *rand.Rand, v Vocabulary) string {
	return strings.ToLower(v.Teams[headPick(rng, len(v.Teams))])
}

func pickEvent(rng *rand.Rand, v Vocabulary) string {
	return v.Events[rng.Intn(len(v.Events))]
}

// template renders one query of class c.
func template(rng *rand.Rand, c Class, v Vocabulary) string {
	switch c {
	case ClassPhrase:
		phrase := v.Phrases[rng.Intn(len(v.Phrases))]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%q %s", phrase, pickTeam(rng, v))
		}
		return fmt.Sprintf("%q %s", phrase, pickPlayer(rng, v))
	case ClassField:
		switch rng.Intn(3) {
		case 0:
			return "subjectPlayer:" + pickPlayer(rng, v) + " event:" + pickEvent(rng, v)
		case 1:
			return "subjectTeam:" + firstWord(pickTeam(rng, v)) + " event:" + pickEvent(rng, v)
		default:
			return "event:" + pickEvent(rng, v) + " " + pickPlayer(rng, v)
		}
	case ClassFuzzy:
		return misspell(rng, pickPlayer(rng, v)) + "~ " + pickEvent(rng, v)
	case ClassSuggest:
		if rng.Intn(2) == 0 {
			return misspell(rng, pickPlayer(rng, v)) + " " + pickEvent(rng, v)
		}
		return pickPlayer(rng, v) + " " + misspell(rng, pickEvent(rng, v))
	default: // ClassKeyword
		switch rng.Intn(4) {
		case 0:
			return pickPlayer(rng, v) + " " + pickEvent(rng, v)
		case 1:
			return pickTeam(rng, v) + " " + pickEvent(rng, v)
		case 2:
			return pickPlayer(rng, v) + " " + pickTeam(rng, v)
		default:
			return pickEvent(rng, v)
		}
	}
}

// firstWord truncates a multi-word team name to its leading token —
// field syntax binds field:term to a single term.
func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// misspell introduces one deterministic single-character edit — the
// typo shape the fuzzy operator and the suggester are built to absorb.
func misspell(rng *rand.Rand, w string) string {
	r := []rune(w)
	if len(r) < 3 {
		return w + "x"
	}
	switch rng.Intn(3) {
	case 0: // drop an interior rune
		i := 1 + rng.Intn(len(r)-2)
		return string(r[:i]) + string(r[i+1:])
	case 1: // double an interior rune
		i := 1 + rng.Intn(len(r)-2)
		return string(r[:i]) + string(r[i]) + string(r[i:])
	default: // swap two adjacent interior runes
		i := 1 + rng.Intn(len(r)-2)
		r[i-1], r[i] = r[i], r[i-1]
		return string(r)
	}
}
