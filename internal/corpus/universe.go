// Package corpus is the scale-truth half of the benchmarking story: a
// deterministic, seeded, *streaming* synthetic-corpus generator that
// scales the paper's 10-match crawl to 10k/100k/1M indexed documents
// without ever holding the corpus in memory. Pages come out one at a
// time through NextPage — the sharded build path (shard.BuildStream),
// cmd/socgen's -stream-out, and the load harness (internal/loadgen) all
// consume the same stream — and identical Specs yield byte-identical
// corpora, so every benchmark tier is reproducible.
//
// Realism knobs follow the web-scale corpora the related systems index:
// team (and with them player) mentions are Zipf-distributed over a
// synthetic league seeded with the eight real squads, so the hot-head /
// long-tail shape of real query and document traffic survives scaling;
// every narration is rendered by the same ontology-aware templates the
// extractor recognizes, so FULL_INF inference levels stay meaningful at
// any size.
package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/soccer"
)

// Universe is the synthetic league a generated corpus draws from: the
// eight real squads (keeping the paper-coverage queries answerable)
// plus deterministically synthesized teams up to the requested league
// size. Its memory footprint depends only on the team count, never on
// how many matches are streamed out of it.
type Universe struct {
	// Teams lists the league, real squads first. Rank order is popularity
	// order: the Zipf team draw treats index 0 as the hottest team.
	Teams []*soccer.Team

	byName map[string]*soccer.Team
}

// MaxTeams caps the league size at the number of distinct synthetic
// names the city x suffix pools can mint plus the real squads.
var MaxTeams = len(cityNames)*len(clubSuffixes) + 8

// NewUniverse builds a league of n teams (clamped to [8, MaxTeams])
// deterministically from the seed. The same (n, seed) always yields the
// identical league, independent of how it is later sampled.
func NewUniverse(n int, seed int64) *Universe {
	real := soccer.BuildTeams()
	if n < len(real) {
		n = len(real)
	}
	if n > MaxTeams {
		n = MaxTeams
	}
	u := &Universe{Teams: make([]*soccer.Team, 0, n), byName: make(map[string]*soccer.Team, n)}
	u.Teams = append(u.Teams, real...)

	rng := rand.New(rand.NewSource(seed))
	// Enumerate city x suffix combinations in a seeded shuffle: unique by
	// construction, so no rejection loop whose iteration count could
	// depend on map order or prior draws.
	combos := rng.Perm(len(cityNames) * len(clubSuffixes))
	positions := soccer.LineupPositions()
	for _, c := range combos {
		if len(u.Teams) >= n {
			break
		}
		city := cityNames[c/len(clubSuffixes)]
		name := city + " " + clubSuffixes[c%len(clubSuffixes)]
		t := &soccer.Team{
			Name:    name,
			City:    city,
			Coach:   synthName(rng, nil),
			Stadium: city + " " + stadiumSuffixes[rng.Intn(len(stadiumSuffixes))],
		}
		// Short names must be unique within a squad: narration text refers
		// to players by surname and the extractor resolves them against the
		// lineup, so a duplicate surname would alias two players.
		used := map[string]bool{}
		for j, pos := range positions {
			full := synthName(rng, used)
			t.Players = append(t.Players, &soccer.Player{
				Name:     full,
				Short:    surname(full),
				Position: pos,
				Shirt:    j + 1,
			})
		}
		u.Teams = append(u.Teams, t)
	}
	for _, t := range u.Teams {
		u.byName[t.Name] = t
	}
	return u
}

// ByName exposes the name lookup map soccer.GenerateCoverageMatch needs.
func (u *Universe) ByName() map[string]*soccer.Team { return u.byName }

// synthName mints a "First Last" name whose surname is not yet in used
// (nil used skips the uniqueness constraint). The pools are sized so 11
// draws out of len(surnames) surnames terminate quickly.
func synthName(rng *rand.Rand, used map[string]bool) string {
	for {
		full := firstNames[rng.Intn(len(firstNames))] + " " + surnames[rng.Intn(len(surnames))]
		s := surname(full)
		if used == nil {
			return full
		}
		if !used[s] {
			used[s] = true
			return full
		}
	}
}

// surname is the narration short form: the last space-separated part.
func surname(full string) string {
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == ' ' {
			return full[i+1:]
		}
	}
	return full
}

// The synthetic vocabulary pools. Sizes matter more than the entries:
// with ~56 cities, 12 club suffixes, 64 first names and 160 surnames the
// default 256-team league carries ~2.8k distinct player surnames — enough
// vocabulary for the Zipf head/tail split to show up in postings-list
// lengths, the property the load harness stresses.
var cityNames = []string{
	"Valeria", "Porto Verde", "Santa Clara", "Eastbrook", "Northfield",
	"Westhaven", "Redcliffe", "Blackpool", "Silverton", "Ironbridge",
	"Greenville", "Oakham", "Ashford", "Millbrook", "Stonehaven",
	"Riverton", "Lakewood", "Hillcrest", "Fairview", "Maplewood",
	"Brookside", "Clearwater", "Springfield", "Harborview", "Sunnydale",
	"Winterfell", "Summerton", "Autumnvale", "Meadowbrook", "Thornbury",
	"Eaglecrest", "Falconridge", "Lionsgate", "Wolfburg", "Bearfield",
	"Foxborough", "Deerhurst", "Swanmere", "Ravenswood", "Hawkesbury",
	"Castellon Vieja", "Monteverde", "Alta Vista", "Bellamar", "Costa Dorada",
	"Nova Esperanza", "San Rafael", "Villa Real", "Puerto Azul", "Los Alamos",
	"Kirkwall", "Dunmore", "Aberfeld", "Glenrock", "Strathmore", "Invergary",
}
var clubSuffixes = []string{
	"United", "City", "Athletic", "Rovers", "Wanderers", "Sporting",
	"Dynamo", "Olympic", "Albion", "Rangers", "Victoria", "Corinthians",
}
var stadiumSuffixes = []string{"Stadium", "Arena", "Park", "Ground"}
var firstNames = []string{
	"Adrian", "Alejandro", "Andre", "Antonio", "Arjen", "Bastian", "Bruno",
	"Carlos", "Cesar", "Claudio", "Daniele", "David", "Diego", "Dimitri",
	"Eduardo", "Emil", "Enzo", "Fabian", "Felipe", "Fernando", "Filip",
	"Francesco", "Gabriel", "Georgi", "Gianluca", "Gonzalo", "Henrik",
	"Hugo", "Igor", "Ivan", "Jakob", "Jan", "Javier", "Joao", "Jonas",
	"Jorge", "Jose", "Juan", "Julian", "Karim", "Kasper", "Kevin", "Luca",
	"Lucas", "Luis", "Marco", "Marcus", "Mario", "Martin", "Mateo",
	"Matteo", "Mehdi", "Miguel", "Mikael", "Milan", "Nicolas", "Oliver",
	"Pablo", "Paulo", "Pedro", "Rafael", "Ricardo", "Roberto", "Sergei",
}
var surnames = []string{
	"Abramov", "Acosta", "Aguilar", "Albrecht", "Almeida", "Alves",
	"Andersen", "Andrade", "Antonelli", "Araujo", "Arias", "Baptista",
	"Barbieri", "Barros", "Becker", "Bellini", "Benitez", "Bergkamp",
	"Bianchi", "Bjornsson", "Blanco", "Bogdanov", "Bonucci", "Borges",
	"Bravo", "Brandt", "Cabrera", "Caldeira", "Campos", "Cardoso",
	"Carvalho", "Castillo", "Cavani", "Cermak", "Chavez", "Colombo",
	"Conti", "Cordova", "Correia", "Costa", "Cruz", "Da Silva", "Delgado",
	"Diallo", "Dias", "Dominguez", "Donati", "Dragomir", "Duarte",
	"Dubois", "Duran", "Eriksen", "Escobar", "Esposito", "Farias",
	"Fernandez", "Ferrari", "Ferreira", "Figueroa", "Fischer", "Flores",
	"Fontaine", "Fonseca", "Freitas", "Fuentes", "Gallo", "Garcia",
	"Giordano", "Gomes", "Gonzalez", "Graziani", "Greco", "Guerrero",
	"Gutierrez", "Haraldsson", "Hernandez", "Herrera", "Hoffmann",
	"Ibanez", "Ibragimov", "Iversen", "Jankovic", "Jensen", "Jimenez",
	"Johansson", "Jorgensen", "Kader", "Kalinin", "Karlsson", "Keller",
	"Kovac", "Kowalski", "Kral", "Krause", "Kuznetsov", "Laurent",
	"Lehmann", "Lindgren", "Lombardi", "Lopes", "Lopez", "Lorenzo",
	"Macedo", "Machado", "Magnusson", "Maldini", "Marchetti", "Marino",
	"Marques", "Martinez", "Martins", "Medina", "Mendes", "Mendoza",
	"Mercado", "Meyer", "Miranda", "Molina", "Monteiro", "Morales",
	"Moreira", "Moreno", "Moretti", "Muller", "Navarro", "Nielsen",
	"Nogueira", "Novak", "Nunez", "Oliveira", "Orlov", "Ortega", "Ortiz",
	"Pavlovic", "Pereira", "Perez", "Petit", "Petrov", "Pinto", "Popov",
	"Quintero", "Ramirez", "Ramos", "Rasmussen", "Reyes", "Ribeiro",
	"Ricci", "Rinaldi", "Rios", "Rivera", "Rocha", "Rodrigues",
	"Rodriguez", "Rojas", "Romano", "Romero", "Rossi", "Ruiz", "Salinas",
	"Sanchez", "Santana", "Santos", "Schmidt", "Schneider", "Silva",
	"Simonsen", "Soares", "Sokolov", "Sorensen", "Soto", "Sousa",
	"Suarez", "Svensson", "Tavares", "Teixeira", "Torres", "Uribe",
	"Valdez", "Varga", "Vargas", "Vasquez", "Vega", "Velasquez",
	"Vieira", "Villanueva", "Vogel", "Volkov", "Wagner", "Weber",
	"Zamora", "Zimmermann",
}

// synthetic vocab sanity: the pools above must stay big enough that the
// per-squad unique-surname draw terminates; compile-time-ish guard.
var _ = func() struct{} {
	if len(surnames) < 32 {
		panic(fmt.Sprintf("corpus: surname pool too small: %d", len(surnames)))
	}
	return struct{}{}
}()
