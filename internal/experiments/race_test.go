//go:build race

package experiments

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
