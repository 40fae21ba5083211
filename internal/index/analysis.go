// Package index implements the inverted-index retrieval substrate the paper
// builds on Apache Lucene (Section 3.6): text analysis (tokenization,
// stopwords, Porter stemming), an in-memory inverted index with positional
// postings and stored fields, TF-IDF vector-space ranking in the style of
// Lucene's classic similarity, per-field boosts, and term, boolean and
// phrase queries with a keyword query parser.
//
// It is the layer that connects "real life applications to the theoretical
// background of vector space models", as the paper puts it — and the layer
// the semantic index of internal/semindex is constructed on.
package index

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Analyzer turns field text into index terms.
type Analyzer interface {
	// Analyze returns the terms of the text, in order of appearance.
	// Positions in the returned slice are the token positions used by
	// phrase queries.
	Analyze(text string) []string
}

// StandardAnalyzer is the default analysis chain: unicode word
// tokenization, lowercasing, English stopword removal and Porter stemming.
// Stopword removal and stemming can be disabled for ablation experiments.
type StandardAnalyzer struct {
	// KeepStopwords disables stopword removal.
	KeepStopwords bool
	// NoStemming disables the Porter stemmer.
	NoStemming bool
}

// Analyze implements Analyzer. It keeps no state, so concurrent searches
// may analyze query text freely; the write path analyzes through a
// Scratch, which memoises normalize.
func (a StandardAnalyzer) Analyze(text string) []string {
	tokens := appendTokens(nil, text)
	out := tokens[:0]
	for _, t := range tokens {
		if t = a.normalize(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// normalize turns one raw token into its index term: lowercased, stemmed,
// or "" when the token is dropped as a stopword.
func (a StandardAnalyzer) normalize(token string) string {
	token = strings.ToLower(token)
	if !a.KeepStopwords && stopwords[token] {
		return ""
	}
	if !a.NoStemming {
		token = PorterStem(token)
	}
	return token
}

// Tokenize splits text into maximal runs of letters, digits and
// apostrophes, so "Eto'o" and "4-4-2" survive sensibly ("4", "4", "2").
func Tokenize(text string) []string { return appendTokens(nil, text) }

// appendTokens appends text's tokens to dst in one pass. The tokens alias
// text.
func appendTokens(dst []string, text string) []string {
	start := -1
	for i := 0; i < len(text); {
		word, size := false, 1
		if c := text[i]; c < utf8.RuneSelf {
			word = asciiWord[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		if word {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = appendToken(dst, text[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = appendToken(dst, text[start:])
	}
	return dst
}

// appendToken strips the run's outer apostrophes and drops a run that was
// nothing else.
func appendToken(dst []string, run string) []string {
	if run[0] == '\'' || run[len(run)-1] == '\'' {
		if run = strings.Trim(run, "'"); run == "" {
			return dst
		}
	}
	return append(dst, run)
}

// asciiWord marks the ASCII bytes that continue a token: exactly those
// unicode.IsLetter or unicode.IsDigit accept, and the apostrophe.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '\''
	}
	return t
}()

// stopwords is Lucene's classic English stopword set.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "if": true, "in": true,
	"into": true, "is": true, "it": true, "no": true, "not": true, "of": true,
	"on": true, "or": true, "such": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "will": true, "with": true,
}
