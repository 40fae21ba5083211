package index

import "strings"

// Highlighter produces query-focused snippets from stored field text, the
// usual search-results affordance on top of the retrieval core. Matching
// is analyzer-aware: the query "goals" highlights "goal" because both stem
// the same way.
type Highlighter struct {
	// Analyzer must be the index's analyzer. nil uses StandardAnalyzer.
	Analyzer Analyzer
	// Pre and Post wrap each matched token; defaults are "«" and "»".
	Pre, Post string
	// MaxTokens bounds the snippet window (default 24 tokens).
	MaxTokens int
}

// Snippet returns the best window of the text for the query, with matched
// tokens wrapped. With no match it returns the head of the text.
func (h Highlighter) Snippet(text, query string) string {
	a := h.Analyzer
	if a == nil {
		a = StandardAnalyzer{}
	}
	pre, post := h.Pre, h.Post
	if pre == "" && post == "" {
		pre, post = "«", "»"
	}
	window := h.MaxTokens
	if window <= 0 {
		window = 24
	}

	queryTerms := map[string]bool{}
	for _, t := range a.Analyze(query) {
		queryTerms[t] = true
	}

	toks := tokenizeOffsets(text)
	if len(toks) == 0 {
		return text
	}
	matched := make([]bool, len(toks))
	for i, tok := range toks {
		for _, t := range a.Analyze(tok.text) {
			if queryTerms[t] {
				matched[i] = true
			}
		}
	}

	// Best window: the window-sized token span with the most matches,
	// found with a sliding window.
	best, bestCount := 0, 0
	count := 0
	for i := 0; i < len(toks); i++ {
		if matched[i] {
			count++
		}
		if i >= window && matched[i-window] {
			count--
		}
		if count > bestCount {
			bestCount = count
			best = max(0, i-window+1)
		}
	}
	end := min(len(toks), best+window)

	// Emit original text between token boundaries so punctuation survives;
	// a window at the first token keeps the text before it too.
	var b strings.Builder
	cursor := 0
	if best > 0 {
		b.WriteString("… ")
		cursor = toks[best].start
	}
	for i := best; i < end; i++ {
		b.WriteString(text[cursor:toks[i].start])
		if matched[i] {
			b.WriteString(pre)
			b.WriteString(text[toks[i].start:toks[i].end])
			b.WriteString(post)
		} else {
			b.WriteString(text[toks[i].start:toks[i].end])
		}
		cursor = toks[i].end
	}
	if end < len(toks) {
		b.WriteString(" …")
	} else {
		b.WriteString(text[cursor:])
	}
	return b.String()
}

type offsetToken struct {
	text       string
	start, end int
}

// tokenizeOffsets is Tokenize with each token's byte offsets in text. A
// token starts with a word rune other than the apostrophe, and the text
// between two tokens holds no such rune, so each token sits at its first
// occurrence after the previous one.
func tokenizeOffsets(text string) []offsetToken {
	words := Tokenize(text)
	out := make([]offsetToken, len(words))
	at := 0
	for i, w := range words {
		at += strings.Index(text[at:], w)
		out[i] = offsetToken{text: w, start: at, end: at + len(w)}
		at += len(w)
	}
	return out
}
