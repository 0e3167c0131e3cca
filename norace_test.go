//go:build !race

package ankerdb_test

const raceEnabled = false
