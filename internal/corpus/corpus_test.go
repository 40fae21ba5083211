package corpus

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/crawler"
)

// drainHash streams the whole corpus and hashes every rendered page —
// the byte-identity fingerprint of a spec.
func drainHash(t *testing.T, spec Spec) (string, int, int) {
	t.Helper()
	g := New(spec)
	h := sha256.New()
	for {
		m, err := g.NextMatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextMatch: %v", err)
		}
		io.WriteString(h, crawler.RenderMatchPage(m))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), g.Pages(), g.Docs()
}

func TestByteIdenticalForEqualSeeds(t *testing.T) {
	spec := Spec{TargetDocs: 2000, Seed: 7}
	h1, pages1, docs1 := drainHash(t, spec)
	h2, pages2, docs2 := drainHash(t, spec)
	if h1 != h2 || pages1 != pages2 || docs1 != docs2 {
		t.Fatalf("same spec, different corpus: %s/%d/%d vs %s/%d/%d",
			h1, pages1, docs1, h2, pages2, docs2)
	}
	if docs1 < 2000 {
		t.Fatalf("stopped before the target: %d docs", docs1)
	}
	h3, _, _ := drainHash(t, Spec{TargetDocs: 2000, Seed: 8})
	if h3 == h1 {
		t.Fatalf("different seeds produced identical corpora")
	}
}

func TestCoverageFixturesLeadTheStream(t *testing.T) {
	g := New(Spec{TargetDocs: 1000, Seed: 1})
	first, err := g.NextPage()
	if err != nil {
		t.Fatalf("NextPage: %v", err)
	}
	if first.Home != "Chelsea" || first.Away != "Barcelona" {
		t.Fatalf("page 0 is %s vs %s, want the Chelsea-Barcelona fixture", first.Home, first.Away)
	}
	second, err := g.NextPage()
	if err != nil {
		t.Fatalf("NextPage: %v", err)
	}
	if second.Home != "Real Madrid" || second.Away != "Manchester United" {
		t.Fatalf("page 1 is %s vs %s, want the Real Madrid-Manchester United fixture", second.Home, second.Away)
	}
	g2 := New(Spec{TargetDocs: 1000, Seed: 1, NoCoverage: true})
	p0, err := g2.NextPage()
	if err != nil {
		t.Fatalf("NextPage: %v", err)
	}
	if p0.Home == "Chelsea" && p0.Away == "Barcelona" {
		t.Fatalf("NoCoverage still emitted the forced fixture")
	}
}

func TestUniqueIDsAndGenerationOrder(t *testing.T) {
	g := New(Spec{TargetDocs: 3000, Seed: 3})
	seen := map[string]bool{}
	var prev string
	for {
		p, err := g.NextPage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextPage: %v", err)
		}
		if seen[p.ID] {
			t.Fatalf("duplicate page ID %q", p.ID)
		}
		seen[p.ID] = true
		// The sequence prefix makes lexicographic order equal generation
		// order, so a -stream-out directory replays deterministically.
		if prev != "" && !(prev < p.ID) {
			t.Fatalf("IDs not lexicographically increasing: %q then %q", prev, p.ID)
		}
		prev = p.ID
	}
}

func TestZipfTeamSkew(t *testing.T) {
	g := New(Spec{TargetDocs: 60_000, Seed: 5, NoCoverage: true})
	counts := map[string]int{}
	for {
		m, err := g.NextMatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextMatch: %v", err)
		}
		counts[m.Home.Name]++
		counts[m.Away.Name]++
	}
	hot := counts[g.Universe().Teams[0].Name]
	if hot == 0 {
		t.Fatalf("rank-0 team never played")
	}
	// With ~500 matches over a Zipf(1.2) league the head team must
	// dominate: it should appear in well over a tenth of all slots while
	// most of the league sits in the tail.
	total := 2 * g.Pages()
	if hot*5 < total/2 {
		t.Fatalf("no Zipf head: hot team in %d of %d slots", hot, total)
	}
	if len(counts) < 20 {
		t.Fatalf("no Zipf tail: only %d distinct teams played", len(counts))
	}
}

func TestUniverseDeterministicAndBounded(t *testing.T) {
	u1 := NewUniverse(64, 9)
	u2 := NewUniverse(64, 9)
	if len(u1.Teams) != 64 || len(u2.Teams) != 64 {
		t.Fatalf("league sizes: %d, %d", len(u1.Teams), len(u2.Teams))
	}
	for i := range u1.Teams {
		if u1.Teams[i].Name != u2.Teams[i].Name {
			t.Fatalf("team %d differs: %q vs %q", i, u1.Teams[i].Name, u2.Teams[i].Name)
		}
		for j := range u1.Teams[i].Players {
			if u1.Teams[i].Players[j].Name != u2.Teams[i].Players[j].Name {
				t.Fatalf("player %d/%d differs", i, j)
			}
		}
	}
	// Per-squad surnames unique (the extractor resolves by surname).
	for _, tm := range u1.Teams {
		shorts := map[string]bool{}
		for _, p := range tm.Players {
			if shorts[p.Short] {
				t.Fatalf("%s: duplicate surname %q", tm.Name, p.Short)
			}
			shorts[p.Short] = true
		}
	}
	if n := len(NewUniverse(1<<20, 1).Teams); n != MaxTeams {
		t.Fatalf("oversized league not clamped: %d teams, want %d", n, MaxTeams)
	}
	if n := len(NewUniverse(0, 1).Teams); n != 8 {
		t.Fatalf("undersized league not clamped to the real squads: %d", n)
	}
}

// TestStreamingMemory pins the tentpole's core claim: peak generator
// memory is independent of corpus size. It streams a small and a 10x
// corpus, sampling live heap (post-GC) after the drain; a generator that
// retained pages would grow the live heap by ~100KB per page and trip
// the bound on the large run.
func TestStreamingMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams ~120k docs")
	}
	liveAfterDrain := func(docs int) uint64 {
		g := New(Spec{TargetDocs: docs, Seed: 11})
		for {
			if _, err := g.NextPage(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("NextPage: %v", err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Keep g live past the measurement so its league is counted.
		runtime.KeepAlive(g)
		return ms.HeapAlloc
	}
	small := liveAfterDrain(12_000)  // ~100 pages
	large := liveAfterDrain(120_000) // ~1000 pages
	// Identical league, identical in-flight state: the live heap after a
	// 10x stream must stay within a fixed budget of the small run, not
	// scale with it. 16MB absorbs GC noise; retained pages would add
	// ~90MB (~900 pages x ~100KB).
	const slack = 16 << 20
	if large > small+slack {
		t.Fatalf("live heap grew with corpus size: %d bytes after 12k docs, %d after 120k", small, large)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{"10k", 10_000, false},
		{"100K", 100_000, false},
		{"1M", 1_000_000, false},
		{"1m", 1_000_000, false},
		{"2500", 2500, false},
		{"250k", 250_000, false},
		{"", 0, true},
		{"k", 0, true},
		{"-5k", 0, true},
		{"2.5M", 0, true},
		// n * mult would wrap: to 384 and to a negative count.
		{"18446744073709552k", 0, true},
		{"9223372036855M", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}
