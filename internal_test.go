package ankerdb

// In-package tests for behavior only observable below the public API:
// the watermark-driven recent-list pruner (per-shard list lengths) and
// exact per-row commit-timestamp preservation across recovery.

import (
	"fmt"
	"testing"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/wal"
)

func internalSchema(cols int) Schema {
	s := Schema{Table: "t"}
	for i := 0; i < cols; i++ {
		s.Columns = append(s.Columns, ColumnDef{Name: fmt.Sprintf("v%d", i), Type: Int64})
	}
	return s
}

// pickTwoShards returns the names of two columns routed to different
// commit shards, probing the actual hash so the test never depends on
// a particular ShardOf implementation.
func pickTwoShards(t *testing.T, db *DB, cols int) (idle, busy string) {
	t.Helper()
	first := db.shardOf(mvcc.ColumnID{Table: 0, Col: 0})
	for i := 1; i < cols; i++ {
		if db.shardOf(mvcc.ColumnID{Table: 0, Col: i}) != first {
			return "v0", fmt.Sprintf("v%d", i)
		}
	}
	t.Skip("all probe columns hash to one shard")
	return
}

// TestDurabilityIdleShardRecentListGC: a shard that stops committing
// must still shed its recent-commit validation records as other shards
// advance the watermark — without an explicit Vacuum.
func TestDurabilityIdleShardRecentListGC(t *testing.T) {
	const cols = 16
	db, err := Open(
		WithCostModel(ZeroCost),
		WithCommitShards(4),
		WithSnapshotRefresh(0),
		WithInitialSchema(internalSchema(cols), 64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idleCol, busyCol := pickTwoShards(t, db, cols)
	commit := func(col string, v int64) {
		w, err := db.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Set("t", col, 0, v); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	commit(idleCol, 1)
	idleShard := db.shards[db.shardOf(mvcc.ColumnID{Table: 0, Col: 0})]
	if idleShard.recent.Len() == 0 {
		t.Fatal("commit left no recent record on its shard")
	}

	// The idle shard never commits again; the busy shard advances the
	// watermark past recentPruneEvery completions, which kicks the
	// background pruner.
	for i := 0; i < 3*recentPruneEvery; i++ {
		commit(busyCol, int64(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for idleShard.recent.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle shard still retains %d recent records", idleShard.recent.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoveryPreservesPerRowCommitTS: every recovered row carries its
// original commit timestamp, byte for byte, both via WAL replay and
// via checkpoint load.
func TestRecoveryPreservesPerRowCommitTS(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "wal-only"
		if checkpoint {
			name = "with-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			const cols, rows = 8, 64
			dir := t.TempDir()
			open := func() *DB {
				db, err := Open(
					WithCostModel(ZeroCost),
					WithCommitShards(4),
					WithDurability(dir),
					WithInitialSchema(internalSchema(cols), rows),
				)
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			for i := 0; i < 32; i++ {
				w, err := db.Begin(OLTP)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Set("t", fmt.Sprintf("v%d", i%cols), i%rows, int64(i)); err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				if checkpoint && i == 15 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}

			type cell struct{ col, row int }
			want := map[cell]uint64{}
			db.mu.RLock()
			tab := db.tabList[0]
			db.mu.RUnlock()
			for ci, c := range tab.cols {
				for r := 0; r < rows; r++ {
					if wts := c.wts.GetU(r); wts != 0 {
						want[cell{ci, r}] = wts
					}
				}
			}
			if len(want) != 32 {
				t.Fatalf("expected 32 written cells, found %d", len(want))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := open()
			defer db2.Close()
			db2.mu.RLock()
			tab2 := db2.tabList[0]
			db2.mu.RUnlock()
			for ci, c := range tab2.cols {
				for r := 0; r < rows; r++ {
					wantTS := want[cell{ci, r}]
					if got := c.wts.GetU(r); got != wantTS {
						t.Fatalf("v%d[%d] recovered commitTS %d, want %d", ci, r, got, wantTS)
					}
				}
			}
		})
	}
}

// TestRecoverySkipsUnknownAddressRecords: a WAL commit record whose
// addresses the durable schema prefix does not cover (possible under
// SyncNone when OS writeback persisted a segment but not the schema
// log) must be skipped whole, never fail recovery — the directory
// stays openable and the intact records replay.
func TestRecoverySkipsUnknownAddressRecords(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(
			WithCostModel(ZeroCost),
			WithCommitShards(1),
			WithDurability(dir),
			WithInitialSchema(internalSchema(2), 16),
		)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	for i := 0; i < 2; i++ {
		w, err := db.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Set("t", "v0", i, int64(10+i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a record for a table the schema log does not know.
	l, err := wal.Open(dir, 1, wal.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, []wal.CommitRecord{{
		TS:     100,
		Writes: []wal.RedoWrite{{Table: 7, Col: 0, Row: 0, Val: 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	if got := db2.Stats().RecoveryReplayedTxns; got != 2 {
		t.Fatalf("replayed %d txns, want 2 (forged record skipped)", got)
	}
	r, err := db2.Begin(OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Commit() }()
	for i := 0; i < 2; i++ {
		if v, err := r.Get("t", "v0", i); err != nil || v != int64(10+i) {
			t.Fatalf("v0[%d] = %d, %v", i, v, err)
		}
	}
}

// TestGCFloorAdvancesWithoutOLAP: a checkpoint pins a snapshot
// generation and hands it back to the manager; on a database that never
// begins an OLAP transaction again that pin must not hold the GC floor
// at the checkpoint timestamp, or version chains and recent-commit
// records grow with every commit.
func TestGCFloorAdvancesWithoutOLAP(t *testing.T) {
	db, err := Open(
		WithCostModel(ZeroCost),
		WithCommitShards(1),
		WithDurability(t.TempDir()),
		WithSyncPolicy(SyncNone),
		WithInitialSchema(internalSchema(1), 64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*vacuumEvery; i++ {
		w, err := db.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Set("t", "v0", i%64, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The reclaimer's chain pass falls due every vacuumEvery commits:
	// once the pass the last of them made due has run, only what has
	// committed since may remain.
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().VersionNodes > vacuumEvery {
		if time.Now().After(deadline) {
			t.Fatalf("VersionNodes = %d after %d OLAP-free commits, want <= %d", db.Stats().VersionNodes, 3*vacuumEvery, vacuumEvery)
		}
		time.Sleep(time.Millisecond)
	}
	for db.Stats().RecentCommitRecords > 2*recentPruneEvery {
		if time.Now().After(deadline) {
			t.Fatalf("RecentCommitRecords = %d, want <= %d", db.Stats().RecentCommitRecords, 2*recentPruneEvery)
		}
		time.Sleep(time.Millisecond)
	}
}
