//go:build race

package smoke

// raceEnabled: under -race the commands are built with -race too, so
// the worker children, serve-workers and daemons the smokes drive run
// under the race detector.
const raceEnabled = true
