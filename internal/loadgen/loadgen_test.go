package loadgen

import (
	"strings"
	"testing"

	"repro/internal/corpus"
)

func testVocab(t *testing.T) Vocabulary {
	t.Helper()
	return VocabFromUniverse(corpus.NewUniverse(32, 1))
}

func TestGenerateQueriesDeterministicAndWellFormed(t *testing.T) {
	v := testVocab(t)
	a := GenerateQueries(v, nil, 400, 42)
	b := GenerateQueries(v, nil, 400, 42)
	if len(a) != 400 || len(b) != 400 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs for equal seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := GenerateQueries(v, nil, 400, 43); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds produced the same opening queries")
	}
	seen := map[Class]int{}
	for _, q := range a {
		seen[q.Class]++
		switch q.Class {
		case ClassPhrase:
			if !strings.Contains(q.Text, `"`) {
				t.Errorf("phrase query without quotes: %q", q.Text)
			}
		case ClassField:
			if !strings.Contains(q.Text, ":") {
				t.Errorf("field query without a field: %q", q.Text)
			}
		case ClassFuzzy:
			if !strings.Contains(q.Text, "~") {
				t.Errorf("fuzzy query without ~: %q", q.Text)
			}
		}
	}
	for _, c := range []Class{ClassKeyword, ClassPhrase, ClassField, ClassFuzzy, ClassSuggest} {
		if seen[c] == 0 {
			t.Errorf("class %s absent from a 400-query default mix", c)
		}
	}
}

func TestGenerateQueriesRespectsMix(t *testing.T) {
	v := testVocab(t)
	qs := GenerateQueries(v, map[Class]int{ClassKeyword: 1}, 50, 7)
	for _, q := range qs {
		if q.Class != ClassKeyword {
			t.Fatalf("keyword-only mix emitted %s query %q", q.Class, q.Text)
		}
	}
}
