package index

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Eto'o scores!", []string{"Eto'o", "scores"}},
		{"a 4-4-2 formation", []string{"a", "4", "4", "2", "formation"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"", nil},
		{"!!!", nil},
		{"Ballack gives away a free-kick", []string{"Ballack", "gives", "away", "a", "free", "kick"}},
		{"'''", nil},
		{"rock'n'roll", []string{"rock'n'roll"}},
		{"Güiza çıkıyor", []string{"Güiza", "çıkıyor"}}, // unicode letters survive
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStandardAnalyzer(t *testing.T) {
	a := StandardAnalyzer{}
	got := a.Analyze("Ballack gives away a free-kick following a challenge on Busquets")
	// Stopwords removed, tokens stemmed and lowercased.
	want := []string{"ballack", "give", "awai", "free", "kick", "follow", "challeng", "busquet"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestStandardAnalyzerQueryDocAgreement(t *testing.T) {
	// The crucial retrieval property: "goal" in a query matches "goals" in
	// a document, "scores" matches "score!", etc.
	a := StandardAnalyzer{}
	pairs := [][2]string{
		{"goal", "goals"},
		{"scores", "scoring"},
		{"punishment", "punishments"},
		{"save", "saves"},
		{"miss", "missed"},
		{"booking", "booked"},
	}
	for _, p := range pairs {
		qa, da := a.Analyze(p[0]), a.Analyze(p[1])
		if len(qa) != 1 || len(da) != 1 || qa[0] != da[0] {
			t.Errorf("Analyze(%q)=%v vs Analyze(%q)=%v: stems disagree", p[0], qa, p[1], da)
		}
	}
}

func TestStandardAnalyzerFlags(t *testing.T) {
	keep := StandardAnalyzer{KeepStopwords: true}
	if got := keep.Analyze("the goal"); len(got) != 2 {
		t.Errorf("KeepStopwords dropped tokens: %v", got)
	}
	nostem := StandardAnalyzer{NoStemming: true}
	if got := nostem.Analyze("scores"); len(got) != 1 || got[0] != "scores" {
		t.Errorf("NoStemming stemmed anyway: %v", got)
	}
}

func TestIsStopword(t *testing.T) {
	for _, s := range []string{"by", "to", "of", "the", "a"} {
		if got := (StandardAnalyzer{}).Analyze(s); len(got) != 0 {
			t.Errorf("Analyze(%q) = %v, want a dropped stopword", s, got)
		}
	}
	if got := (StandardAnalyzer{}).Analyze("goal"); len(got) != 1 {
		t.Errorf("Analyze(goal) = %v", got)
	}
}

func TestPorterStemFixtures(t *testing.T) {
	// Classic fixtures from Porter's paper plus soccer vocabulary.
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		// Soccer domain.
		"goals":        "goal",
		"scores":       "score",
		"scored":       "score",
		"punishments":  "punish",
		"substitution": "substitut",
		"offsides":     "offsid",
		"fouls":        "foul",
		"saves":        "save",
		"penalties":    "penalti",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "go", ""} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Property: stemming is idempotent-ish in the sense that it never panics and
// always returns a non-longer, non-empty stem for non-empty lowercase input.
func TestPorterStemProperty(t *testing.T) {
	f := func(s string) bool {
		// Constrain to plausible tokens: lowercase ASCII letters.
		var b strings.Builder
		for _, r := range s {
			if unicode.IsLetter(r) && r < 128 {
				b.WriteRune(unicode.ToLower(r))
			}
		}
		w := b.String()
		got := PorterStem(w)
		if w == "" {
			return got == ""
		}
		return got != "" && len(got) <= len(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
