package main

import (
	"testing"
	"time"

	"ankerdb"
)

// TestMicroSweep runs every benchmark at a deliberately tiny scale —
// one strategy, one shard count, milliseconds per configuration — so
// the sweep plumbing (config parsing, workload drivers, metric
// emission, output formats) is exercised on every test run. The
// numbers are meaningless at this scale; only completing without
// fail() is asserted.
func TestMicroSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("micro bench sweep")
	}
	*flagStrategies = "vmsnap"
	*flagRows = 512
	*flagCols = 2
	*flagWrites = 64
	*flagWriters = 2
	*flagScanners = 1
	*flagMix = "uniform,tpcc"
	*flagRefresh = 4
	*flagShards = "1"
	*flagDur = 30 * time.Millisecond

	strats := []ankerdb.SnapshotStrategy{ankerdb.VMSnap}
	emitEnv()
	benchCreate(strats)
	benchWrite(strats)
	benchMixed(strats)
	benchCommit()

	if len(records) == 0 {
		t.Fatal("micro sweep emitted no records")
	}
	byBench := map[string]bool{}
	for _, r := range records {
		byBench[r.Bench] = true
	}
	for _, b := range []string{"create", "write", "mixed", "commit"} {
		if !byBench[b] {
			t.Errorf("no records emitted for bench %q", b)
		}
	}

	// Every output format must render the full record set.
	for _, f := range []string{"text", "csv", "json"} {
		*flagFormat = f
		flush()
	}

	if got := parseShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("parseShards() = %v", got)
	}
	if got := powersOfTwoUpTo(8); len(got) != 4 || got[3] != 8 {
		t.Fatalf("powersOfTwoUpTo(8) = %v", got)
	}
	if dimStr(-1) != "" || dimStr(3) != "3" {
		t.Fatal("dimStr rendering broken")
	}
}
