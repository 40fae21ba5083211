package index

import (
	"math"
	"testing"
	"testing/quick"
)

// termScore scores freq occurrences of a term in a field of fieldLen
// tokens, df documents containing the term out of numDocs, avgLen the mean
// field length.
func termScore(sim Similarity, freq, df, numDocs, fieldLen int, avgLen float64) float64 {
	return sim.weight(termStats{df: df, numDocs: numDocs, avgLen: avgLen}).score(freq, fieldLen)
}

func TestClassicTFIDFProperties(t *testing.T) {
	s := ClassicTFIDF{}
	if termScore(s, 0, 1, 100, 10, 10) != 0 {
		t.Error("zero freq must score 0")
	}
	if termScore(s, 1, 1, 100, 0, 10) != 0 {
		t.Error("zero field length must score 0")
	}
	// Rarer terms score higher.
	rare := termScore(s, 1, 2, 1000, 10, 10)
	common := termScore(s, 1, 500, 1000, 10, 10)
	if rare <= common {
		t.Errorf("rare %f <= common %f", rare, common)
	}
	// More occurrences score higher, sublinearly.
	one := termScore(s, 1, 10, 1000, 10, 10)
	four := termScore(s, 4, 10, 1000, 10, 10)
	if four <= one || four >= 4*one {
		t.Errorf("tf scaling wrong: tf1=%f tf4=%f", one, four)
	}
	if math.Abs(four-2*one) > 1e-9 {
		t.Errorf("sqrt tf expected: tf4=%f vs 2*tf1=%f", four, 2*one)
	}
	// Longer fields are normalized down.
	short := termScore(s, 1, 10, 1000, 4, 10)
	long := termScore(s, 1, 10, 1000, 64, 10)
	if short <= long {
		t.Errorf("length norm wrong: short=%f long=%f", short, long)
	}
}

func TestBM25Properties(t *testing.T) {
	s := BM25{}
	if termScore(s, 0, 1, 100, 10, 10) != 0 {
		t.Error("zero freq must score 0")
	}
	rare := termScore(s, 1, 2, 1000, 10, 10)
	common := termScore(s, 1, 500, 1000, 10, 10)
	if rare <= common {
		t.Errorf("rare %f <= common %f", rare, common)
	}
	// BM25 tf saturates: going 1 -> 2 gains more than 9 -> 10.
	g12 := termScore(s, 2, 10, 1000, 10, 10) - termScore(s, 1, 10, 1000, 10, 10)
	g910 := termScore(s, 10, 10, 1000, 10, 10) - termScore(s, 9, 10, 1000, 10, 10)
	if g12 <= g910 {
		t.Errorf("tf not saturating: g12=%f g910=%f", g12, g910)
	}
	// Below-average-length fields score higher.
	short := termScore(s, 1, 10, 1000, 5, 10)
	long := termScore(s, 1, 10, 1000, 40, 10)
	if short <= long {
		t.Errorf("length norm wrong: short=%f long=%f", short, long)
	}
}

func TestSetSimilarityChangesRanking(t *testing.T) {
	build := func() *Index {
		ix := New(StandardAnalyzer{})
		// Doc 0: "goal" many times in a long field; doc 1: once in a short one.
		ix.Add(new(Document).Add("f", "goal goal goal goal goal goal filler filler filler filler filler filler filler filler"))
		ix.Add(new(Document).Add("f", "goal here"))
		return ix
	}
	classic := build()
	hitsClassic := classic.Search(TermQuery{Field: "f", Term: "goal"}, 0)

	bm := build()
	bm.SetSimilarity(BM25{})
	hitsBM := bm.Search(TermQuery{Field: "f", Term: "goal"}, 0)

	if len(hitsClassic) != 2 || len(hitsBM) != 2 {
		t.Fatal("expected 2 hits each")
	}
	// Both must retrieve the same set; scores will differ.
	if hitsClassic[0].Score == hitsBM[0].Score {
		t.Error("similarities produced identical scores; SetSimilarity inert?")
	}
}

// Property: both similarities are monotone in freq and antitone in df.
func TestSimilarityMonotonicityProperty(t *testing.T) {
	sims := []Similarity{ClassicTFIDF{}, BM25{}}
	f := func(freq, df uint8) bool {
		fr := int(freq%20) + 1
		d := int(df%50) + 1
		for _, s := range sims {
			if termScore(s, fr+1, d, 1000, 20, 20) < termScore(s, fr, d, 1000, 20, 20) {
				return false
			}
			if termScore(s, fr, d, 1000, 20, 20) < termScore(s, fr, d+10, 1000, 20, 20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
