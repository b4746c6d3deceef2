//go:build race

package trace

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// what it is handed and allocation counts stop being exact.
const raceEnabled = true
