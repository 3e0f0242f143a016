//go:build race

package workload

// raceEnabled skips TestGeneratorsPinned's 2^20-update configs under the
// race detector: the generators run on one goroutine, and the detector
// makes those configs a minute long.
const raceEnabled = true
