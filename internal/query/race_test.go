//go:build race

package query

// raceEnabled is true under -race, whose scheduler puts a readied
// goroutine in runnext only half of the time (TestMorselBoundaryYieldsToDueTimer).
const raceEnabled = true
