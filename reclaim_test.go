package ankerdb

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The reclaimer's contract: state that no reader can see any more
// stays bounded without an explicit Vacuum — on a replica, on a shard
// that stopped committing, under insert/delete churn, and for a table
// dropped under a pinned reader. None of these tests calls Vacuum.

// waitUntil polls cond until it holds, failing with what() after a
// bounded wait.
func waitUntil(t *testing.T, what func() string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitVersionNodes waits for db's version chains to hold at most max
// nodes.
func waitVersionNodes(t *testing.T, db *DB, max int64) {
	t.Helper()
	waitUntil(t, func() string {
		return fmt.Sprintf("VersionNodes = %d, want <= %d", db.Stats().VersionNodes, max)
	}, func() bool { return db.Stats().VersionNodes <= max })
	st := db.Stats()
	t.Logf("VersionNodes %d after %d passes removed %d", st.VersionNodes, st.Vacuums, st.VersionsGCed)
}

// TestReclaimerPrunesReplicaChains: a replica installs the primary's
// displaced versions through the same kernel, so its chains grow with
// every applied commit unless its own reclaimer prunes them.
func TestReclaimerPrunesReplicaChains(t *testing.T) {
	p := openPrimary(t, WithCommitShards(1), WithInitialSchema(internalSchema(1), 64))
	r := openReplicaOf(t, p.ServeAddr(), WithCommitShards(1))
	for i := 0; i < 3*vacuumEvery; i++ {
		commitWrite(t, p, "t", "v0", i%64, int64(i))
	}
	waitReplicaTS(t, r, p.oracle.Completed())
	waitVersionNodes(t, r, vacuumEvery)
}

// TestReclaimerPrunesIdleShards: a chain pass covers every shard, not
// only the shards of the commits that make it due, so a shard that
// stopped committing sheds its versions as the others go on.
func TestReclaimerPrunesIdleShards(t *testing.T) {
	db, err := Open(WithCostModel(ZeroCost), WithCommitShards(2), WithInitialSchema(internalSchema(8), 64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idle, busy := pickTwoShards(t, db, 8)
	for i := 0; i < 3000; i++ {
		commitWrite(t, db, "t", idle, i%64, int64(i))
	}
	for i := 0; i < 3*vacuumEvery; i++ {
		commitWrite(t, db, "t", busy, i%64, int64(i))
	}
	waitVersionNodes(t, db, vacuumEvery)
}

// churnSample is what insert/delete churn grows when nothing reclaims:
// mapped capacity, death-stamped index entries and visibility-log
// entries.
type churnSample struct {
	capacity, deadEntries, visLog int64
}

// sampleChurn wakes db's reclaimer until no table has due work left,
// then samples the churn table: the sample sees the state the reclaimer
// keeps, not a moment between two of its passes.
func sampleChurn(t *testing.T, db *DB) churnSample {
	t.Helper()
	waitUntil(t, func() string { return "reclaimer left due work" }, func() bool {
		select {
		case db.gcKick <- struct{}{}:
		default:
		}
		floor := db.gcFloor()
		db.mu.RLock()
		defer db.mu.RUnlock()
		for _, tab := range db.tabList {
			if tab.reclaimDue(floor) {
				return false
			}
		}
		return true
	})
	st := db.Stats()
	db.mu.RLock()
	tab := db.tables["churn"]
	db.mu.RUnlock()
	return churnSample{int64(st.TableCapacity), st.IndexEntriesRaw - st.IndexEntries, int64(tab.visLogLen())}
}

// TestReclaimerBoundsChurn: 32,000 insert+delete pairs over at most 65
// live rows of a hash-indexed VMSnap table, with an empty OLAP
// transaction every 64 pairs. On the primary and on its replica,
// capacity, dead index entries and visibility-log entries stop growing
// after the first 8,000 pairs, and the replica reads what the primary
// reads.
func TestReclaimerBoundsChurn(t *testing.T) {
	const (
		pairs   = 32000
		maxLive = 65
	)
	p := openPrimary(t, WithSnapshotStrategy(VMSnap))
	schema := NewSchema("churn").Int64("k").Indexed(Hash).Int64("v").Varchar("s").Build()
	if err := p.CreateTable(schema, 1); err != nil { // the one initial row stays live
		t.Fatal(err)
	}
	r := openReplicaOf(t, p.ServeAddr(), WithSnapshotStrategy(VMSnap))
	commit := func(fn func(tx *Txn) error) {
		t.Helper()
		tx, err := p.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var held []int
	var early map[*DB]churnSample
	for i := 1; i <= pairs; i++ {
		commit(func(tx *Txn) error {
			row, err := tx.Insert("churn", map[string]any{"k": int64(i % 8), "v": int64(i), "s": fmt.Sprint(i % 5)})
			held = append(held, row)
			return err
		})
		if len(held) == maxLive-1 {
			commit(func(tx *Txn) error { return tx.Delete("churn", held[0]) })
			held = held[1:]
		}
		if i%64 == 0 {
			olap, err := p.Begin(OLAP)
			if err != nil {
				t.Fatal(err)
			}
			if err := olap.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if i == pairs/4 {
			waitReplicaTS(t, r, p.oracle.Completed())
			early = map[*DB]churnSample{p: sampleChurn(t, p), r: sampleChurn(t, r)}
		}
	}
	waitReplicaTS(t, r, p.oracle.Completed())
	chunk := int64(p.tables["churn"].st.ChunkRows())
	for db, name := range map[*DB]string{p: "primary", r: "replica"} {
		a, b := early[db], sampleChurn(t, db)
		t.Logf("%s: %+v after %d pairs, %+v after %d", name, a, pairs/4, b, pairs)
		if b.capacity > a.capacity+chunk || b.deadEntries > a.deadEntries+chunk || b.visLog > a.visLog+chunk {
			t.Errorf("%s grew from %+v after %d pairs to %+v after %d", name, a, pairs/4, b, pairs)
		}
		if limit := 4*maxLive + 2*chunk; b.capacity > limit {
			t.Errorf("%s capacity %d rows for %d live, want <= %d", name, b.capacity, maxLive, limit)
		}
	}
	if got, want := dumpState(t, r, "churn"), dumpState(t, p, "churn"); got != want {
		t.Errorf("replica diverges from the primary:\n%s\nprimary:\n%s", got, want)
	}
}

// TestReclaimerFreesDroppedTable: a table dropped while a reader could
// still reach it keeps its storage only until that reader is gone.
func TestReclaimerFreesDroppedTable(t *testing.T) {
	db, err := Open(WithCostModel(ZeroCost), WithInitialSchema(internalSchema(1), 64))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(NewSchema("gone").Int64("v").Build(), 64); err != nil {
		t.Fatal(err)
	}
	gone := db.tables["gone"]
	reader, err := db.Begin(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Get("gone", "v", 0); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	freed := func() bool {
		db.lockAllShards()
		defer db.unlockAllShards()
		return gone.freed
	}
	if freed() {
		t.Fatal("storage freed under a pinned reader")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	i := 0
	waitUntil(t, func() string { return fmt.Sprintf("dropped table still mapped after %d commits", i) }, func() bool {
		i++
		commitWrite(t, db, "t", "v0", i%64, int64(i))
		return freed()
	})
}

// TestCloseLeavesNoGoroutines: Close stops everything Open started — the
// reclaimer, the checkpoint scheduler, the server and the replica's
// connector — and Vacuum on a closed database returns at once.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	mem, err := Open(WithCostModel(ZeroCost), WithInitialSchema(internalSchema(1), 64))
	if err != nil {
		t.Fatal(err)
	}
	commitWrite(t, mem, "t", "v0", 0, 1)
	p := openPrimary(t, WithInitialSchema(internalSchema(1), 64),
		WithAutoCheckpoint(1<<10, 16), WithAutoCheckpointInterval(time.Millisecond))
	r := openReplicaOf(t, p.ServeAddr())
	for i := 0; i < 100; i++ {
		commitWrite(t, p, "t", "v0", i%64, int64(i))
	}
	waitReplicaTS(t, r, p.oracle.Completed())
	for _, db := range []*DB{mem, r, p} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() string {
		return fmt.Sprintf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), base)
	}, func() bool { return runtime.NumGoroutine() <= base })
	for _, db := range []*DB{mem, r, p} {
		if n := db.Vacuum(); n != 0 {
			t.Fatalf("Vacuum after Close removed %d", n)
		}
	}
}
