package index

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// ParseQuery parses Lucene-flavoured user query syntax into a Query:
//
//	goal barcelona          terms over the default fields
//	"yellow card"           phrase
//	event:goal              explicit field
//	+messi -ronaldo         required / excluded terms
//	mesi~                   fuzzy term (edit distance 1)
//
// defaultFields carries the fields (with boosts) unfielded terms search.
func ParseQuery(src string, defaultFields []FieldBoost) (Query, error) {
	toks, err := lexQuery(src)
	if err != nil {
		return nil, err
	}
	var q BooleanQuery
	for _, t := range toks {
		clause := buildClause(t, defaultFields)
		if clause == nil {
			continue
		}
		switch t.op {
		case '+':
			q.Must = append(q.Must, clause)
		case '-':
			q.MustNot = append(q.MustNot, clause)
		default:
			q.Should = append(q.Should, clause)
		}
	}
	if len(q.Must)+len(q.Should)+len(q.MustNot) == 0 {
		return nil, fmt.Errorf("index: empty query %q", src)
	}
	return q, nil
}

type queryToken struct {
	op     byte   // '+', '-' or 0
	field  string // "" = default fields
	text   string
	phrase bool
	fuzzy  bool
}

func lexQuery(src string) ([]queryToken, error) {
	var out []queryToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
			continue
		}
		var t queryToken
		if c == '+' || c == '-' {
			t.op = c
			i++
		}
		// Optional field prefix.
		if j := fieldPrefixEnd(src[i:]); j > 0 {
			t.field = src[i : i+j]
			i += j + 1 // past ':'
		}
		if i < len(src) && src[i] == '"' {
			j := strings.IndexByte(src[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("index: unterminated phrase in %q", src)
			}
			t.text = src[i+1 : i+1+j]
			t.phrase = true
			i += j + 2
		} else {
			j := i
			for j < len(src) && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' {
				j++
			}
			t.text = src[i:j]
			i = j
			if strings.HasSuffix(t.text, "~") {
				t.text = strings.TrimSuffix(t.text, "~")
				t.fuzzy = true
			}
		}
		if t.text != "" {
			out = append(out, t)
		} else if t.op != 0 || t.field != "" {
			return nil, fmt.Errorf("index: dangling operator or field in %q", src)
		}
	}
	return out, nil
}

// fieldPrefixEnd returns the length of a leading "name" if src starts with
// "name:" where name is alphanumeric, else 0.
func fieldPrefixEnd(src string) int {
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == ':':
			if i > 0 {
				return i
			}
			return 0
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			return 0
		}
	}
	return 0
}

func buildClause(t queryToken, defaultFields []FieldBoost) Query {
	fields := defaultFields
	if t.field != "" {
		fields = []FieldBoost{{Field: t.field, Boost: 1}}
	}
	return &multiFieldQuery{text: t.text, phrase: t.phrase, fuzzy: t.fuzzy, fields: fields}
}

// FuzzyQuery matches terms within Levenshtein distance 1 of the query term
// (after analysis), rescoring exact matches at full weight and fuzzy
// matches at half. It exists for misspelled player names ("mesi~").
type FuzzyQuery struct {
	Field string
	Term  string
	Boost float64
}

func (q FuzzyQuery) bind(a Analyzer, cs *CorpusStats) boundQuery {
	analyzed := a.Analyze(q.Term)
	if len(analyzed) != 1 {
		return noMatch{}
	}
	return &fuzzyClause{field: q.Field, target: analyzed[0], boost: orOne(q.Boost), cs: cs}
}

// fuzzyClause is a bound FuzzyQuery: the index-form target whose
// neighbours each index's dictionary supplies, scored with cs.
type fuzzyClause struct {
	field, target string
	boost         float64
	cs            *CorpusStats
}

func (q *fuzzyClause) bind(Analyzer, *CorpusStats) boundQuery { return q }

func (q *fuzzyClause) scores(ix *Index) map[int]float64 {
	fi := ix.fields[q.field]
	if fi == nil {
		return nil
	}
	out := make(map[int]float64)
	terms, weights := fi.expansions(q.target, nil, nil)
	for i, term := range terms {
		w := ix.sim.weight(ix.termStats(q.cs, q.field, term))
		// postingsOf after the edit-distance filter: only the few matching
		// expansions are materialized on a mapped index.
		te := fi.postingsOf(term)
		for k, d := range te.docs {
			s := w.score(te.freq(k), fi.lengthOf(int(d))) * te.boostAt(k) * q.boost * weights[i]
			if s > out[int(d)] {
				out[int(d)] = s
			}
		}
	}
	return out
}

// newScorer expands the fuzzy term against the field's dictionary once —
// the same expansion the exhaustive path scores — and evaluates it
// document-at-a-time as a weighted per-document maximum, reproducing the
// "best matching variant wins" semantics of scores. The expansion lands in
// the arena's scratch, which the next fuzzy clause reuses, so the weights
// the scorer keeps are copied out of it.
func (q *fuzzyClause) newScorer(ix *Index, a *searchArena) scorer {
	fi := ix.fields[q.field]
	if fi == nil {
		return emptyScorer{}
	}
	terms, weights := fi.expansions(q.target, a.expTerms[:0], a.expWeights[:0])
	a.expTerms, a.expWeights = terms, weights
	subs := a.scorers.take(len(terms))
	for i, term := range terms {
		subs[i] = newTermScorer(ix, a, q.cs, q.field, term, q.boost)
	}
	kept := a.floats.take(len(weights))
	copy(kept, weights)
	return newMaxScorer(a, subs, kept)
}

// WithinEditDistance1 reports whether two strings are within Levenshtein
// distance 1 (one rune inserted, deleted or substituted). It allocates
// nothing: the strings are walked as UTF-8 in place.
func WithinEditDistance1(a, b string) bool {
	for a != "" && b != "" {
		na, nb := runeLen(a), runeLen(b)
		if a[:na] != b[:nb] {
			// The one edit is spent here: substitute the rune, or drop it
			// from either side; the rest must then agree exactly.
			return a[na:] == b[nb:] || a[na:] == b || a == b[nb:]
		}
		a, b = a[na:], b[nb:]
	}
	// One string is a prefix of the other: at most one rune may be left.
	rest := a
	if rest == "" {
		rest = b
	}
	return rest == "" || runeLen(rest) == len(rest)
}

// runeLen is the byte length of the first rune of s, which is not empty
// (an invalid byte counts as a rune of its own).
func runeLen(s string) int {
	if s[0] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s)
	return n
}
