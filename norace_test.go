//go:build !race

package xtq

// raceEnabled reports a build with the race detector, which slows the
// byte oracles of whole-document tests about tenfold.
const raceEnabled = false
