//go:build race

package index

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what it is given, so allocation counts are
// not exact under it.
const raceEnabled = true
