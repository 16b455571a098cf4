//go:build race

package middleware

// raceEnabled reports whether the race detector is compiled in. The
// allocation-guard tests skip under -race: instrumentation adds allocations
// that have nothing to do with the serving path's steady state.
const raceEnabled = true
