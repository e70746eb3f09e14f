//go:build race

package main

// raceEnabled reports whether the tests run under the race detector,
// which slows the serving pipeline about tenfold.
const raceEnabled = true
