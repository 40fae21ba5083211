//go:build !race

package index

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
