//go:build !race

package smoke

// raceEnabled: see race_test.go.
const raceEnabled = false
