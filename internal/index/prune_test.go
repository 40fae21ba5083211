package index

import (
	"math/rand"
	"strings"
	"testing"
)

// The pruned disjunction tree beyond one posting block. A MultiFieldQuery
// binds to a coordinated disjunction of per-token, coordination-free
// disjunctions over the searched fields. Under a threshold the root makes
// its weakest tokens non-essential by their coordinated bound and hands
// every token a bar of its own, under which the token partitions its
// fields and jumps windows in turn. The corpora here are large enough that
// common terms span several blocks, carry index-time boosts of both signs
// (negative postings inside lists with a positive bound), and every search
// may start from a bar raised by "another index": the pruned kernel must
// return exactly the exhaustive hits that score at least the bar,
// truncated to the limit.

var pruneVocab = strings.Fields("goal foul save corner pass shot keeper header messi eto")

var pruneFields = []string{"event", "narration", "players"}

// buildPruneCorpus adds n documents in stretches of 100–300. Within a
// stretch each field has one index-time boost, 0.1, 1, 5 or -0.5, flipped
// in one document in eight, and the narration one length range, so posting
// blocks differ in their bounds. The two semantic fields hold one value of
// two, so their lists run to several blocks.
func buildPruneCorpus(rng *rand.Rand, n int) *Index {
	ix := New(StandardAnalyzer{})
	var fieldBoost [3]float64
	maxLen := 10
	for d, next := 0, 0; d < n; d++ {
		if d == next {
			next += 100 + rng.Intn(201)
			maxLen = 4 + rng.Intn(12)
			for i := range fieldBoost {
				fieldBoost[i] = []float64{0.1, 1, 5, -0.5}[rng.Intn(4)]
			}
		}
		doc := new(Document)
		for fi, f := range pruneFields {
			size, vocab := 1+rng.Intn(maxLen), pruneVocab
			if f != "narration" {
				size, vocab = 1, pruneVocab[:2]
			} else if rng.Intn(5) == 0 {
				continue
			}
			words := make([]string, size)
			for i := range words {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
			boost := fieldBoost[fi]
			if rng.Intn(8) == 0 {
				boost = -boost
			}
			doc.Fields = append(doc.Fields, Field{Name: f, Text: strings.Join(words, " "), Boost: boost})
		}
		ix.Add(doc)
	}
	return ix
}

// pruneQuery is a MultiFieldQuery of the tokens picked by words (one byte
// per token; a byte past the vocabulary picks a word no document holds)
// over the three fields at the given query-time boosts.
func pruneQuery(words []byte, boosts [3]float64) Query {
	toks := make([]string, len(words))
	for i, w := range words {
		toks[i] = "zzz"
		if int(w) < 4*len(pruneVocab) {
			toks[i] = pruneVocab[int(w)%len(pruneVocab)]
		}
	}
	fields := make([]FieldBoost, len(pruneFields))
	for i, f := range pruneFields {
		fields[i] = FieldBoost{Field: f, Boost: boosts[i]}
	}
	return MultiFieldQuery(strings.Join(toks, " "), fields)
}

// checkPrunedSearch holds one pruned search to the exhaustive path. barPick
// chooses the bar a search at a positive limit starts from: 0 none, odd the
// exact score of one of the best 2·limit exhaustive hits (a tie at the bar
// must be kept), even 0.5 to 1.2 times the best score.
func checkPrunedSearch(t *testing.T, ix *Index, q Query, limit, barPick int) {
	t.Helper()
	want := ix.ExhaustiveSearch(q, limit)
	var bar *Bar
	height := 0.0
	if all := ix.ExhaustiveSearch(q, 0); barPick > 0 && limit > 0 && len(all) > 0 {
		if barPick%2 == 1 {
			height = all[(barPick/2)%min(len(all), 2*limit)].Score
		} else {
			height = all[0].Score * (0.5 + 0.7*float64(barPick%1024)/1024)
		}
		if height > 0 {
			bar = new(Bar)
			bar.raise(height)
		}
	}
	if bar != nil {
		kept := want[:0:0]
		for _, h := range want {
			if h.Score >= height {
				kept = append(kept, h)
			}
		}
		want = kept
	}
	if got := ix.Search(q, limit, bar); !hitsEqual(got, want) {
		t.Fatalf("limit %d bar %v (pick %d):\ngot:  %v\nwant: %v", limit, height, barPick, got, want)
	}
}

// TestDAATEquivalencePrunedTree is the randomized oracle for the pruned
// tree: 200–600 documents, 2–3-token queries over three boosted fields,
// mixed-sign index-time boosts, both similarities and a random starting
// bar.
func TestDAATEquivalencePrunedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for round := 0; round < 8; round++ {
		ix := buildPruneCorpus(rng, 200+rng.Intn(401))
		if round%2 == 1 {
			ix.SetSimilarity(BM25{})
		}
		for qi := 0; qi < 60; qi++ {
			words := make([]byte, 2+rng.Intn(2))
			for i := range words {
				words[i] = byte(rng.Intn(len(pruneVocab) + 1))
				if int(words[i]) == len(pruneVocab) {
					words[i] = 255
				}
			}
			// One field dominates the query, as the paper's boosts do.
			var boosts [3]float64
			for i := range boosts {
				boosts[i] = 0.05 + rng.Float64()
			}
			boosts[rng.Intn(3)] = 2 + rng.Float64()*8
			limit := []int{1, 2, 3, 5, 10, 40}[rng.Intn(6)]
			barPick := 0
			if rng.Intn(3) > 0 {
				barPick = 1 + rng.Intn(4096)
			}
			checkPrunedSearch(t, ix, pruneQuery(words, boosts), limit, barPick)
		}
	}
}

// FuzzSearchMatchesExhaustive is the same property over fuzzed corpora,
// queries, limits and starting bars.
func FuzzSearchMatchesExhaustive(f *testing.F) {
	f.Add(int64(1), []byte{0, 1}, uint8(10), uint16(0), false)
	f.Add(int64(2), []byte{2, 8, 9}, uint8(1), uint16(7), true)
	f.Add(int64(3), []byte{4, 255}, uint8(3), uint16(600), false)
	f.Fuzz(func(t *testing.T, seed int64, words []byte, limit uint8, barPick uint16, bm25 bool) {
		if len(words) > 4 {
			words = words[:4]
		}
		rng := rand.New(rand.NewSource(seed))
		ix := buildPruneCorpus(rng, 200+rng.Intn(401))
		if bm25 {
			ix.SetSimilarity(BM25{})
		}
		boosts := [3]float64{4, 1, 2.5}
		checkPrunedSearch(t, ix, pruneQuery(words, boosts), int(limit), int(barPick))
	})
}
