//go:build race

package ankerdb_test

// raceEnabled is true under -race, whose instrumentation allocates: the
// allocation gates (gate_test.go) skip.
const raceEnabled = true
