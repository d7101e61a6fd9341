//go:build !race

package sched

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
