//go:build race

package astrea

// raceEnabled reports a -race build. Under the race detector sync.Pool
// deliberately drops a share of Puts, so a pooled path's allocation count
// is no measure of the path.
const raceEnabled = true
