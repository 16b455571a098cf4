//go:build race

package harness

// raceEnabled reports whether the race detector is compiled in. The paper
// tables golden skips under -race: the instrumented run is several times
// slower and checks nothing the plain run does not.
const raceEnabled = true
