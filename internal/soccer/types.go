package soccer

import "fmt"

// Player is a squad member.
type Player struct {
	// Name is the display name used in narrations ("Samuel Eto'o").
	Name string
	// Short is the surname form narrations mostly use ("Eto'o").
	Short string
	// Position is the squad position code: GK, LB, RB, CB, SW, DM, CM, AM,
	// LW, RW, CF, SS. PositionClass maps it to the ontology.
	Position string
	// Shirt is the shirt number.
	Shirt int
}

// Team is a club with a fixed squad.
type Team struct {
	Name    string
	Coach   string
	Stadium string
	City    string
	// Players is the 11-player lineup, goalkeeper first.
	Players []*Player
}

// Goalkeeper returns the first GK in the lineup.
func (t *Team) Goalkeeper() *Player {
	for _, p := range t.Players {
		if p.Position == "GK" {
			return p
		}
	}
	return nil
}

// FindPlayer returns the squad player with the given short name, or nil.
func (t *Team) FindPlayer(short string) *Player {
	for _, p := range t.Players {
		if p.Short == short {
			return p
		}
	}
	return nil
}

// EventKind is an ontology event class local name ("Goal", "Foul", ...).
type EventKind string

// The event kinds the simulator produces and the extractor recognizes.
const (
	KindGoal          EventKind = "Goal"
	KindHeaderGoal    EventKind = "HeaderGoal"
	KindPenaltyGoal   EventKind = "PenaltyGoal"
	KindFreeKickGoal  EventKind = "FreeKickGoal"
	KindOwnGoal       EventKind = "OwnGoal"
	KindAssist        EventKind = "Assist"
	KindPass          EventKind = "Pass"
	KindLongPass      EventKind = "LongPass"
	KindShortPass     EventKind = "ShortPass"
	KindCrossPass     EventKind = "CrossPass"
	KindThroughPass   EventKind = "ThroughPass"
	KindShoot         EventKind = "Shoot"
	KindShotOnTarget  EventKind = "ShotOnTarget"
	KindShotOffTarget EventKind = "ShotOffTarget"
	KindHeaderShot    EventKind = "HeaderShot"
	KindSave          EventKind = "Save"
	KindPenaltySave   EventKind = "PenaltySave"
	KindTackle        EventKind = "Tackle"
	KindInterception  EventKind = "Interception"
	KindClearance     EventKind = "Clearance"
	KindDribble       EventKind = "Dribble"
	KindFoul          EventKind = "Foul"
	KindHandBall      EventKind = "HandBall"
	KindYellowCard    EventKind = "YellowCard"
	KindSecondYellow  EventKind = "SecondYellowCard"
	KindRedCard       EventKind = "RedCard"
	KindOffside       EventKind = "Offside"
	KindMissedGoal    EventKind = "Miss"
	KindMissedPenalty EventKind = "MissedPenalty"
	KindInjury        EventKind = "Injury"
	KindSubstitution  EventKind = "Substitution"
	KindCorner        EventKind = "Corner"
	KindFreeKick      EventKind = "FreeKick"
	KindPenaltyKick   EventKind = "PenaltyKick"
	KindThrowIn       EventKind = "ThrowIn"
	KindGoalKick      EventKind = "GoalKick"
	KindKickOff       EventKind = "KickOff"
	KindHalfTime      EventKind = "HalfTimeWhistle"
	KindFullTime      EventKind = "FullTimeWhistle"
	// KindUnknown marks color-commentary narrations with no extractable
	// event; the pipeline still indexes them (Section 3.4).
	KindUnknown EventKind = "UnknownEvent"
)

// TruthEvent is the simulator's ground-truth record of what a narration
// describes. The evaluation harness derives relevance judgments from these,
// substituting for the paper's manual assessments.
type TruthEvent struct {
	Kind   EventKind
	Minute int
	// Subject is the acting player (scorer, fouler, taker...), nil for
	// teamless events like the half-time whistle.
	Subject *Player
	// Object is the affected player (fouled, receiver, keeper...), may be nil.
	Object *Player
	// SubjectTeam is the acting player's team (or the event's team for
	// subject-less events), may be nil.
	SubjectTeam *Team
	// ObjectTeam is the affected team, may be nil.
	ObjectTeam *Team
	// NarrationIdx indexes Match.Narrations; -1 for basic-info-only events.
	NarrationIdx int
}

// Narration is one minute-by-minute commentary line.
type Narration struct {
	Minute int
	Text   string
}

// GoalInfo is a goal as listed in the crawled basic information (the
// UEFA page lists scorers and minutes separately from the narration feed).
type GoalInfo struct {
	Minute int
	Scorer *Player
	Team   *Team
	// OwnGoal marks the goal as an own goal.
	OwnGoal bool
}

// SubInfo is a substitution in the basic information.
type SubInfo struct {
	Minute int
	Off    *Player
	On     *Player
	Team   *Team
}

// Match bundles everything the crawler obtains for one game: basic
// information plus narrations, and (simulator-only) the ground truth.
type Match struct {
	// ID is a stable identifier like "Chelsea_Barcelona_2009-05-06".
	ID string
	// Home and Away are the competing teams.
	Home, Away *Team
	// Date is ISO formatted (yyyy-mm-dd).
	Date string
	// Referee officiates the match.
	Referee string
	// HomeScore and AwayScore are the final score.
	HomeScore, AwayScore int
	// Goals, Substitutions: the basic information of the crawl.
	Goals         []GoalInfo
	Substitutions []SubInfo
	// Narrations is the minute-by-minute feed.
	Narrations []Narration
	// Truth is the ground-truth event log (one entry per event; color
	// narrations have no entry).
	Truth []TruthEvent
}

// Teams returns home and away.
func (m *Match) Teams() [2]*Team { return [2]*Team{m.Home, m.Away} }

// OpponentOf returns the other team of the match.
func (m *Match) OpponentOf(t *Team) *Team {
	if t == m.Home {
		return m.Away
	}
	return m.Home
}

// Corpus is the full crawled data set.
type Corpus struct {
	Teams   []*Team
	Matches []*Match
}

// Stats summarizes corpus size for logs and the experiment reports.
func (c *Corpus) Stats() string {
	narr, events := 0, 0
	for _, m := range c.Matches {
		narr += len(m.Narrations)
		events += len(m.Truth)
	}
	return fmt.Sprintf("%d matches, %d narrations, %d ground-truth events",
		len(c.Matches), narr, events)
}
