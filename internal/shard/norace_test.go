//go:build !race

package shard

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
