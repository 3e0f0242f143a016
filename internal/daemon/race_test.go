//go:build race

package daemon

// raceEnabled cuts TestOracle to its -short count under the race
// detector, which runs it about ten times slower.
const raceEnabled = true
