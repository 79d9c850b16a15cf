//go:build race

package israce

// Enabled is true in builds with -race.
const Enabled = true
