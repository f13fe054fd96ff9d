//go:build !race

package astrea

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
