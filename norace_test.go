//go:build !race

package repro_test

// raceEnabled reports a -race build, under which the performance gates skip.
const raceEnabled = false
