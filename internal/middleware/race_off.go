//go:build !race

package middleware

// raceEnabled reports whether the race detector is compiled in. See
// race_on.go.
const raceEnabled = false
