//go:build race

package server

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
