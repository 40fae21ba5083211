package corpus

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/soccer"
)

// Spec configures one streamed corpus. The zero value of every field
// selects a sane default, so Spec{TargetDocs: 100_000} is a complete
// configuration. Two generators constructed from equal Specs emit
// byte-identical page streams.
type Spec struct {
	// TargetDocs is the approximate indexed-document target; generation
	// stops at the first match that reaches it. A match page carries ~118
	// narrations and indexes to ~119 event documents at FULL_INF, so the
	// narration count is the accounting proxy (within ~1% of the real
	// per-level document count). <= 0 means 10_000.
	TargetDocs int
	// Seed drives every random draw. Equal seeds (with equal other
	// fields) yield byte-identical corpora.
	Seed int64
	// Teams is the synthetic league size (clamped to [8, MaxTeams]);
	// 0 means 256. League size is a realism knob, not a scale knob —
	// generator memory depends on it, never on TargetDocs.
	Teams int
	// ZipfS is the team-popularity exponent (> 1; 0 means 1.2). Hot
	// teams play — and get mentioned — Zipf-often, reproducing the
	// head/tail shape of real match-page corpora.
	ZipfS float64
	// NoCoverage disables the two forced paper-coverage fixtures that
	// otherwise occupy the first two matches (soccer.GenerateCoverageMatch),
	// which keep the Table 3 evaluation queries answerable at any scale.
	NoCoverage bool
}

// withDefaults resolves the zero values.
func (s Spec) withDefaults() Spec {
	if s.TargetDocs <= 0 {
		s.TargetDocs = 10_000
	}
	if s.Teams == 0 {
		s.Teams = 256
	}
	if s.ZipfS <= 1 {
		// rand.NewZipf needs s > 1; treat anything else (including the
		// zero value) as "default skew".
		s.ZipfS = 1.2
	}
	return s
}

// Generator streams one synthetic corpus match by match. It retains no
// emitted match: peak memory is the league plus the single match in
// flight, independent of TargetDocs (pinned by TestStreamingMemory).
// Not safe for concurrent use; one goroutine owns the stream.
type Generator struct {
	spec  Spec
	u     *Universe
	rng   *rand.Rand
	zipf  *rand.Zipf
	pages int
	docs  int
	day   int
}

// New constructs a generator over spec. Construction builds only the
// league; no match is generated until NextMatch/NextPage.
func New(spec Spec) *Generator {
	spec = spec.withDefaults()
	g := &Generator{spec: spec, u: NewUniverse(spec.Teams, spec.Seed)}
	// A distinct seed stream for match simulation keeps the league
	// (NewUniverse consumes its own rng) and the schedule independent.
	g.rng = rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
	g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(len(g.u.Teams)-1))
	return g
}

// Universe exposes the league the stream draws from — the vocabulary
// source for query-mix generation (internal/loadgen).
func (g *Generator) Universe() *Universe { return g.u }

// Pages returns how many match pages have been emitted so far.
func (g *Generator) Pages() int { return g.pages }

// Docs returns the running indexed-document proxy count (narrations).
func (g *Generator) Docs() int { return g.docs }

// scheduleBase anchors the fixture calendar; dates advance 1-3 days per
// match, so every match carries a distinct date and match IDs stay
// unique even when the Zipf head repeats a pairing.
var scheduleBase = time.Date(2009, time.March, 1, 0, 0, 0, 0, time.UTC)

// NextMatch generates the next match of the stream, or io.EOF once the
// document target is reached. The caller owns the returned match; the
// generator keeps no reference to it.
func (g *Generator) NextMatch() (*soccer.Match, error) {
	if g.docs >= g.spec.TargetDocs {
		return nil, io.EOF
	}
	g.day += g.rng.Intn(3) + 1
	date := scheduleBase.AddDate(0, 0, g.day).Format("2006-01-02")

	var m *soccer.Match
	if !g.spec.NoCoverage && g.pages < 2 {
		m, _ = g.coverageMatch(date)
	}
	if m == nil {
		home := g.u.Teams[g.zipf.Uint64()]
		away := home
		for away == home {
			away = g.u.Teams[g.zipf.Uint64()]
		}
		m = soccer.GenerateMatch(g.rng, home, away, date)
	}
	// Prefix the ID with the stream sequence number: IDs become unique by
	// construction and a -stream-out directory read back sorted by name
	// (cli.ReadPagesDir) replays the exact generation order, keeping
	// docIDs — and with them ranking tie-breaks — deterministic.
	m.ID = fmt.Sprintf("m%08d_%s", g.pages, m.ID)

	g.pages++
	g.docs += len(m.Narrations)
	return m, nil
}

// coverageMatch delegates to the forced paper fixtures.
func (g *Generator) coverageMatch(date string) (*soccer.Match, bool) {
	return soccer.GenerateCoverageMatch(g.rng, g.u.ByName(), g.pages, date)
}

// NextPage is NextMatch rendered and re-parsed into the crawled page
// shape the indexing pipeline consumes — the same lossless round trip
// crawler.PagesFromCorpus performs, one page at a time. It implements
// shard.PageSource, so a Generator plugs directly into the streaming
// sharded build.
func (g *Generator) NextPage() (*crawler.MatchPage, error) {
	m, err := g.NextMatch()
	if err != nil {
		return nil, err
	}
	page, perr := crawler.ParseMatchPage(crawler.RenderMatchPage(m))
	if perr != nil {
		// Render and Parse are inverse by construction; failing here is a
		// bug in the generator's vocabulary (e.g. a name the escaper and
		// parser disagree on), worth surfacing loudly.
		return nil, fmt.Errorf("corpus: page %d round trip: %w", g.pages-1, perr)
	}
	return page, nil
}

// ParseSize converts a human corpus size — "10k", "100k", "1M", "2500",
// "2.5M" is NOT accepted (keep tiers integral) — into a document count.
func ParseSize(s string) (int, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("corpus: empty size")
	}
	mult := 1
	switch t[len(t)-1] {
	case 'k', 'K':
		mult = 1_000
		t = t[:len(t)-1]
	case 'm', 'M':
		mult = 1_000_000
		t = t[:len(t)-1]
	}
	n, err := strconv.Atoi(t)
	if err != nil || n <= 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("corpus: bad size %q (want e.g. 10k, 100k, 1M)", s)
	}
	return n * mult, nil
}
