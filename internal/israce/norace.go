//go:build !race

// Package israce reports whether the race detector is compiled in, for
// tests whose cost or premise changes under it: the detector slows the
// search an order of magnitude, and makes sync.Pool drop a quarter of
// its Puts at random, so steady-state allocation counts stop being
// steady.
package israce

// Enabled is true in builds with -race.
const Enabled = false
