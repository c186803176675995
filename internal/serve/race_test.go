//go:build race

package serve_test

// raceEnabled reports a -race build, whose detector drops sync.Pool items.
const raceEnabled = true
