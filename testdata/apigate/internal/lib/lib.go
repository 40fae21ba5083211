// Package lib declares one identifier for each rule of the exported-API
// checker; cmd/app is its only non-test caller.
package lib

// Used is called by cmd/app.
func Used() int { return unexported() }

// Unused has no caller.
func Unused() {}

// Live has a non-test caller but is allowlisted anyway.
func Live() {}

// Allowed has no caller and an allowlist entry.
func Allowed() {}

func unexported() int { return 1 }

// OnlyReceiver is named only in its own method's receiver.
type OnlyReceiver struct{}

// Method has no caller.
func (o *OnlyReceiver) Method() {}

// Namer is called through its method by cmd/app.
type Namer interface{ Name() string }

// Widget is used by cmd/app only as a Namer.
type Widget struct{}

// Name shares its name with Namer.Name, which cmd/app calls.
func (Widget) Name() string { return "widget" }

// String satisfies fmt.Stringer.
func (Widget) String() string { return "widget" }
