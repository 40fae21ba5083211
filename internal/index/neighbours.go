package index

import (
	"cmp"
	"slices"
	"strings"
	"unicode/utf8"
)

// neighbours is a field's term dictionary laid out for fuzzy expansion:
// fwd holds the terms in byte order, and rev indexes fwd in the order of
// each term's bytes read back to front. The terms starting with a string
// are then one range of fwd, and the terms ending with one a range of rev.
// 20 bytes a term; the strings are the dictionary's own.
//
// A field builds its neighbours on its first fuzzy expansion (see
// fieldIndex.nbrs) and never changes them: a heap Add that creates a term
// drops them, and the next expansion builds them again.
type neighbours struct {
	fwd []string
	rev []int32
}

// newNeighbours lays out the field's dictionary, in either storage mode.
func newNeighbours(fi *fieldIndex) *neighbours {
	fwd := make([]string, 0, fi.numTerms())
	fi.eachTerm(func(t string, _ postingsSource) { fwd = append(fwd, t) })
	slices.Sort(fwd)
	rev := make([]int32, len(fwd))
	for i := range rev {
		rev[i] = int32(i)
	}
	slices.SortFunc(rev, func(a, b int32) int { return compareReversed(fwd[a], fwd[b]) })
	return &neighbours{fwd: fwd, rev: rev}
}

// compareReversed compares a and b as their bytes read back to front.
func compareReversed(a, b string) int {
	i, j := len(a)-1, len(b)-1
	for ; i >= 0 && j >= 0; i, j = i-1, j-1 {
		if a[i] != b[j] {
			if a[i] < b[j] {
				return -1
			}
			return 1
		}
	}
	// One ends the other (at least one index is -1): the shorter sorts first.
	return cmp.Compare(i, j)
}

// expansions appends to terms the terms the field holds within edit
// distance 1 of target, and to weights their weights: 1 for the target
// itself, 0.5 for the rest.
func (fi *fieldIndex) expansions(target string, terms []string, weights []float64) ([]string, []float64) {
	nb := fi.nbrs.Load()
	if nb == nil {
		nb = newNeighbours(fi)
		if !fi.nbrs.CompareAndSwap(nil, nb) {
			nb = fi.nbrs.Load()
		}
	}
	return nb.within1(target, terms, weights)
}

// within1 finds the terms within edit distance 1 of target without walking
// the dictionary. Split target at h = len(target)/2 and let e be the end
// of the rune holding byte h-1, runes counted as WithinEditDistance1
// counts them (an invalid byte is a rune of its own). An edit to a rune
// after that one, or an insertion at or after e, keeps target[:e], so the
// term starts with target[:h]; any other edit keeps target[e:], so the
// term ends with it. The candidates are therefore one range of fwd and
// one of rev, and WithinEditDistance1 decides among them. A target whose
// prefix or suffix is empty constrains nothing and takes one pass over
// fwd.
func (nb *neighbours) within1(target string, terms []string, weights []float64) ([]string, []float64) {
	visit := func(term string) {
		// One edit is one rune: at most four bytes.
		if d := len(term) - len(target); d > utf8.UTFMax || d < -utf8.UTFMax {
			return
		}
		switch {
		case term == target:
			weights = append(weights, 1)
		case WithinEditDistance1(term, target):
			weights = append(weights, 0.5)
		default:
			return
		}
		terms = append(terms, term)
	}
	h, e := len(target)/2, 0
	for e < h {
		e += runeLen(target[e:])
	}
	pre, suf := target[:h], target[e:]
	if pre == "" || suf == "" {
		for _, term := range nb.fwd {
			visit(term)
		}
		return terms, weights
	}
	lo, _ := slices.BinarySearch(nb.fwd, pre)
	for _, term := range nb.fwd[lo:] {
		if !strings.HasPrefix(term, pre) {
			break
		}
		visit(term)
	}
	lo, _ = slices.BinarySearchFunc(nb.rev, suf, func(i int32, s string) int { return compareReversed(nb.fwd[i], s) })
	for _, i := range nb.rev[lo:] {
		term := nb.fwd[i]
		if !strings.HasSuffix(term, suf) {
			break
		}
		if !strings.HasPrefix(term, pre) { // the prefix range saw it
			visit(term)
		}
	}
	return terms, weights
}
