//go:build race

package main

// raceEnabled reports that the tests run under the race detector, which
// makes the engine an order of magnitude slower; see TestSmoke.
const raceEnabled = true
