package ankerdb_test

// Crash-recovery coverage for the durability subsystem: commit through
// the sharded group-commit pipeline, "crash" (close, or close plus a
// deliberately torn WAL tail), reopen from the durability directory,
// and assert that exactly the committed state survived — with and
// without intervening checkpoints, under every snapshot strategy and
// sync policy. Everything here goes through the public API only.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ankerdb"
)

const durRows = 256

// durCols are spread across commit shards by the FNV-1a column hash;
// with 4 shards, writes over all eight columns are guaranteed to cross
// shard boundaries.
const durNumCols = 8

func durSchema() ankerdb.Schema {
	s := ankerdb.Schema{Table: "t"}
	for i := 0; i < durNumCols; i++ {
		s.Columns = append(s.Columns, ankerdb.ColumnDef{Name: fmt.Sprintf("v%d", i), Type: ankerdb.Int64})
	}
	s.Columns = append(s.Columns, ankerdb.ColumnDef{Name: "name", Type: ankerdb.Varchar})
	return s
}

func openDurable(t *testing.T, dir string, strat ankerdb.SnapshotStrategy, opts ...ankerdb.Option) *ankerdb.DB {
	t.Helper()
	db, err := ankerdb.Open(append([]ankerdb.Option{
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithCommitShards(4),
		ankerdb.WithDurability(dir),
		ankerdb.WithInitialSchema(durSchema(), durRows),
	}, opts...)...)
	if err != nil {
		t.Fatalf("open durable db: %v", err)
	}
	return db
}

// commitOne commits value into column col at row via one OLTP txn.
func commitOne(t *testing.T, db *ankerdb.DB, col string, row int, val int64) {
	t.Helper()
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Set("t", col, row, val); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func getOne(t *testing.T, db *ankerdb.DB, col string, row int) int64 {
	t.Helper()
	r, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Commit() }()
	v, err := r.Get("t", col, row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDurabilityRecoveryAllStrategies is the headline crash-recovery
// scenario: N committed transactions across multiple commit shards
// (plus VARCHAR writes, an aborted transaction, and a transaction left
// open at the crash), reopened without a checkpoint, under each of the
// four snapshot strategies.
func TestDurabilityRecoveryAllStrategies(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, strat)

			const n = 40
			for i := 0; i < n; i++ {
				commitOne(t, db, fmt.Sprintf("v%d", i%durNumCols), i%durRows, int64(1000+i))
			}
			w, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.SetString("t", "name", 7, "alice"); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}

			// Staged-but-never-committed writes must not survive: one
			// explicit abort, one transaction simply left open.
			ab, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if err := ab.Set("t", "v0", 200, -1); err != nil {
				t.Fatal(err)
			}
			if err := ab.Abort(); err != nil {
				t.Fatal(err)
			}
			open, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if err := open.Set("t", "v1", 201, -2); err != nil {
				t.Fatal(err)
			}

			before := db.Stats()
			if !before.Durable || before.WALBytes == 0 {
				t.Fatalf("expected durable stats, got %+v", before)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := openDurable(t, dir, strat)
			defer db2.Close()
			after := db2.Stats()
			if after.CompletedCommitTS != before.CompletedCommitTS {
				t.Fatalf("recovered watermark %d, want %d", after.CompletedCommitTS, before.CompletedCommitTS)
			}
			if after.RecoveryReplayedTxns != n+1 {
				t.Fatalf("replayed %d txns, want %d", after.RecoveryReplayedTxns, n+1)
			}
			for i := 0; i < n; i++ {
				// n < durRows, so every (column, row) pair is written
				// exactly once.
				want := int64(1000 + i)
				got := getOne(t, db2, fmt.Sprintf("v%d", i%durNumCols), i%durRows)
				if got != want {
					t.Fatalf("v%d[%d] = %d, want %d", i%durNumCols, i%durRows, got, want)
				}
			}
			r, err := db2.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if s, err := r.GetString("t", "name", 7); err != nil || s != "alice" {
				t.Fatalf("recovered string = %q, %v", s, err)
			}
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			if v := getOne(t, db2, "v0", 200); v != 0 {
				t.Fatalf("aborted write survived recovery: %d", v)
			}
			if v := getOne(t, db2, "v1", 201); v != 0 {
				t.Fatalf("uncommitted staged write survived recovery: %d", v)
			}

			// OLAP snapshot scans over recovered state work too.
			olap, err := db2.Begin(ankerdb.OLAP)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := olap.Aggregate("t", "v0", ankerdb.Sum)
			if err != nil {
				t.Fatal(err)
			}
			if err := olap.Commit(); err != nil {
				t.Fatal(err)
			}
			var want int64
			for i := 0; i < n; i += durNumCols {
				want += int64(1000 + i)
			}
			if sum != want {
				t.Fatalf("OLAP sum over recovered v0 = %d, want %d", sum, want)
			}

			// The recovered engine keeps committing: timestamps continue
			// above the recovered watermark.
			commitOne(t, db2, "v0", 0, 7777)
			if got := db2.Stats().CompletedCommitTS; got <= before.CompletedCommitTS {
				t.Fatalf("post-recovery commit TS %d did not advance past %d", got, before.CompletedCommitTS)
			}
			if getOne(t, db2, "v0", 0) != 7777 {
				t.Fatal("post-recovery commit not visible")
			}
		})
	}
}

// TestRecoveryEmptyDir: WithDurability over a fresh directory must
// behave like a fresh database with zero replays.
func TestRecoveryEmptyDir(t *testing.T) {
	db := openDurable(t, t.TempDir(), ankerdb.VMSnap)
	defer db.Close()
	st := db.Stats()
	if st.RecoveryReplayedTxns != 0 || st.CheckpointCount != 0 {
		t.Fatalf("fresh dir recovered state: %+v", st)
	}
	commitOne(t, db, "v0", 1, 42)
	if getOne(t, db, "v0", 1) != 42 {
		t.Fatal("commit in fresh durable db not visible")
	}
}

// TestDurabilityCheckpointRecovery: commits below the checkpoint come
// back from the checkpoint file, commits above it from WAL replay.
func TestDurabilityCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	for i := 0; i < 20; i++ {
		commitOne(t, db, fmt.Sprintf("v%d", i%durNumCols), i, int64(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := db.Stats().CheckpointCount; got != 1 {
		t.Fatalf("CheckpointCount = %d, want 1", got)
	}
	for i := 20; i < 30; i++ {
		commitOne(t, db, fmt.Sprintf("v%d", i%durNumCols), i, int64(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	// The default refresh policy rotates the pinned generation before
	// the checkpoint, so its timestamp covers all 20 pre-checkpoint
	// commits: only the 10 later ones replay from the WAL.
	if got := db2.Stats().RecoveryReplayedTxns; got != 10 {
		t.Fatalf("replayed %d txns, want 10", got)
	}
	for i := 0; i < 30; i++ {
		if got := getOne(t, db2, fmt.Sprintf("v%d", i%durNumCols), i); got != int64(i) {
			t.Fatalf("row %d = %d, want %d", i, got, i)
		}
	}
}

// TestRecoveryCheckpointNoTrailingWAL: a checkpoint immediately before
// the crash leaves nothing to replay.
func TestRecoveryCheckpointNoTrailingWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	for i := 0; i < 10; i++ {
		commitOne(t, db, "v2", i, int64(100+i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	if got := db2.Stats().RecoveryReplayedTxns; got != 0 {
		t.Fatalf("replayed %d txns after clean checkpoint, want 0", got)
	}
	for i := 0; i < 10; i++ {
		if got := getOne(t, db2, "v2", i); got != int64(100+i) {
			t.Fatalf("v2[%d] = %d, want %d", i, got, 100+i)
		}
	}
}

// tearNewestSegment truncates the newest non-empty WAL segment by a
// few bytes, simulating a crash mid-append.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear: %v, %v", segs, err)
	}
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4 {
		t.Fatalf("segment %s too small to tear (%d bytes)", newest, fi.Size())
	}
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTornTail: a torn final record loses exactly the last
// commit; everything before it replays cleanly.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	// One shard: all records land in one segment, so the torn record
	// is deterministically the newest commit.
	db := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	const n = 6
	for i := 0; i < n; i++ {
		commitOne(t, db, "v0", i, int64(100+i))
	}
	before := db.Stats().CompletedCommitTS
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestSegment(t, dir)

	db2 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	defer db2.Close()
	st := db2.Stats()
	if st.RecoveryReplayedTxns != n-1 {
		t.Fatalf("replayed %d txns, want %d", st.RecoveryReplayedTxns, n-1)
	}
	if st.CompletedCommitTS != before-1 {
		t.Fatalf("recovered watermark %d, want %d", st.CompletedCommitTS, before-1)
	}
	for i := 0; i < n-1; i++ {
		if got := getOne(t, db2, "v0", i); got != int64(100+i) {
			t.Fatalf("v0[%d] = %d, want %d", i, got, 100+i)
		}
	}
	if got := getOne(t, db2, "v0", n-1); got != 0 {
		t.Fatalf("torn commit partially survived: v0[%d] = %d", n-1, got)
	}
}

// TestRecoveryCheckpointPlusTornTail combines both: checkpointed
// history intact, post-checkpoint WAL torn at its last record.
func TestRecoveryCheckpointPlusTornTail(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	for i := 0; i < 10; i++ {
		commitOne(t, db, "v0", i, int64(100+i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		commitOne(t, db, "v0", i, int64(100+i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestSegment(t, dir)

	db2 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	defer db2.Close()
	if got := db2.Stats().RecoveryReplayedTxns; got != 4 {
		t.Fatalf("replayed %d txns, want 4", got)
	}
	for i := 0; i < 14; i++ {
		if got := getOne(t, db2, "v0", i); got != int64(100+i) {
			t.Fatalf("v0[%d] = %d, want %d", i, got, 100+i)
		}
	}
	if got := getOne(t, db2, "v0", 14); got != 0 {
		t.Fatalf("torn commit partially survived: v0[14] = %d", got)
	}
}

// TestDurabilityCrossShardCommit: one transaction spanning every
// column (hence several commit shards) must recover atomically.
func TestDurabilityCrossShardCommit(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < durNumCols; i++ {
		if err := w.Set("t", fmt.Sprintf("v%d", i), 5, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().CommitShardConflicts; got == 0 {
		t.Fatal("expected a cross-shard commit")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	for i := 0; i < durNumCols; i++ {
		if got := getOne(t, db2, fmt.Sprintf("v%d", i), 5); got != int64(i+1) {
			t.Fatalf("cross-shard write v%d[5] = %d, want %d", i, got, i+1)
		}
	}
}

// TestDurabilitySyncPolicies: all three policies recover after a clean
// close (Close syncs even under SyncNone).
func TestDurabilitySyncPolicies(t *testing.T) {
	for _, p := range []ankerdb.SyncPolicy{ankerdb.SyncAlways, ankerdb.SyncGroupOnly, ankerdb.SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithSyncPolicy(p))
			commitOne(t, db, "v3", 9, 314)
			if got := db.Stats().SyncPolicy; got != p.String() {
				t.Fatalf("Stats().SyncPolicy = %q, want %q", got, p.String())
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithSyncPolicy(p))
			defer db2.Close()
			if got := getOne(t, db2, "v3", 9); got != 314 {
				t.Fatalf("recovered v3[9] = %d, want 314", got)
			}
			// A recovered database checkpoints under every policy.
			if err := db2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
		})
	}
}

// TestDurabilityOffByDefault: without WithDurability nothing touches
// disk and Checkpoint refuses.
func TestDurabilityOffByDefault(t *testing.T) {
	db, err := ankerdb.Open(
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithInitialSchema(durSchema(), durRows),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	commitOne(t, db, "v0", 0, 1)
	st := db.Stats()
	if st.Durable || st.WALBytes != 0 || st.FsyncCount != 0 {
		t.Fatalf("in-memory db reports durability: %+v", st)
	}
	if err := db.Checkpoint(); !errors.Is(err, ankerdb.ErrNoDurability) {
		t.Fatalf("Checkpoint without durability: %v", err)
	}
}

// TestDurabilityTableCreatedAfterOpen: DDL after Open is redo-logged
// through the schema log and recovered, including its committed rows.
func TestDurabilityTableCreatedAfterOpen(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	extra := ankerdb.Schema{Table: "extra", Columns: []ankerdb.ColumnDef{{Name: "x", Type: ankerdb.Int64}}}
	if err := db.CreateTable(extra, 64); err != nil {
		t.Fatal(err)
	}
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Set("extra", "x", 3, 99); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	r, err := db2.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Commit() }()
	if v, err := r.Get("extra", "x", 3); err != nil || v != 99 {
		t.Fatalf("recovered extra.x[3] = %d, %v", v, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

// TestBulkLoadCrashRecovery is the WAL-logged bulk-load headline: Load
// and LoadStrings followed by a crash WITHOUT any checkpoint must
// recover every loaded row — and a committed write over a loaded row
// must win, because loads are the state at time zero.
func TestBulkLoadCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	vals := make([]int64, durRows)
	for i := range vals {
		vals[i] = int64(5000 + i)
	}
	if err := db.Load("t", "v0", vals); err != nil {
		t.Fatalf("load: %v", err)
	}
	strs := make([]string, durRows)
	for i := range strs {
		strs[i] = fmt.Sprintf("s-%d", i%17)
	}
	if err := db.LoadStrings("t", "name", strs); err != nil {
		t.Fatalf("load strings: %v", err)
	}
	// A commit over a loaded row: time-zero load data must lose to it.
	commitOne(t, db, "v0", 3, -33)
	if st := db.Stats(); st.WALRecords == 0 {
		t.Fatalf("bulk load appended no WAL records: %+v", st)
	}
	if err := db.Close(); err != nil { // no checkpoint anywhere
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	st := db2.Stats()
	if st.RecoveryReplayedLoads == 0 {
		t.Fatalf("no bulk-load records replayed: %+v", st)
	}
	for i := 0; i < durRows; i++ {
		want := int64(5000 + i)
		if i == 3 {
			want = -33 // the committed write wins over the load
		}
		if got := getOne(t, db2, "v0", i); got != want {
			t.Fatalf("v0[%d] = %d, want %d", i, got, want)
		}
	}
	r, err := db2.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Commit() }()
	for _, i := range []int{0, 7, durRows - 1} {
		if got, err := r.GetString("t", "name", i); err != nil || got != strs[i] {
			t.Fatalf("name[%d] = %q, %v; want %q", i, got, err, strs[i])
		}
	}
}

// TestBulkLoadThenTornTail: a bulk-load record followed by a torn
// commit tail loses exactly the torn commit — the load itself (earlier
// in the same segment series) replays intact.
func TestBulkLoadThenTornTail(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	vals := make([]int64, durRows)
	for i := range vals {
		vals[i] = int64(9000 + i)
	}
	if err := db.Load("t", "v0", vals); err != nil {
		t.Fatal(err)
	}
	commitOne(t, db, "v0", 1, 11)
	commitOne(t, db, "v0", 2, 22) // this one gets torn
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestSegment(t, dir)

	db2 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithCommitShards(1))
	defer db2.Close()
	st := db2.Stats()
	if st.RecoveryReplayedLoads == 0 || st.RecoveryReplayedTxns != 1 {
		t.Fatalf("replayed loads=%d txns=%d, want >0 and 1", st.RecoveryReplayedLoads, st.RecoveryReplayedTxns)
	}
	if got := getOne(t, db2, "v0", 1); got != 11 {
		t.Fatalf("v0[1] = %d, want 11", got)
	}
	if got := getOne(t, db2, "v0", 2); got != 9002 {
		t.Fatalf("v0[2] = %d, want the loaded 9002 (torn commit must not survive)", got)
	}
	if got := getOne(t, db2, "v0", 0); got != 9000 {
		t.Fatalf("v0[0] = %d, want 9000", got)
	}
}

// TestBulkLoadAcrossCheckpoint: loaded rows travel through a
// checkpoint (which truncates their WAL records) like committed ones.
func TestBulkLoadAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	vals := make([]int64, durRows)
	for i := range vals {
		vals[i] = int64(100 + i)
	}
	if err := db.Load("t", "v4", vals); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, db, "v4", 0, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	if got := getOne(t, db2, "v4", 0); got != 1 {
		t.Fatalf("v4[0] = %d, want 1", got)
	}
	for i := 1; i < durRows; i++ {
		if got := getOne(t, db2, "v4", i); got != int64(100+i) {
			t.Fatalf("v4[%d] = %d, want %d", i, got, 100+i)
		}
	}
}

// TestBulkLoadAfterSnapshotPinThenCheckpoint is the regression test
// for a data-loss bug: an OLAP pin caches a column snapshot in the
// current generation; a bulk load then fills the column; a checkpoint
// reusing that generation would persist the PRE-load snapshot while
// truncating the load's (timestamp-less) WAL records — losing the
// load. Checkpoints must pin a generation created after they start.
func TestBulkLoadAfterSnapshotPinThenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	// Cache a pre-load snapshot of v0 in the current generation. No
	// commits happen afterwards, so nothing marks the generation stale.
	olap, err := db.Begin(ankerdb.OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := olap.Get("t", "v0", 0); err != nil {
		t.Fatal(err)
	}
	if err := olap.Commit(); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, durRows)
	for i := range vals {
		vals[i] = int64(4000 + i)
	}
	if err := db.Load("t", "v0", vals); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	for _, i := range []int{0, 1, durRows - 1} {
		if got := getOne(t, db2, "v0", i); got != int64(4000+i) {
			t.Fatalf("v0[%d] = %d, want %d — checkpoint persisted a stale pre-load snapshot", i, got, 4000+i)
		}
	}
}

// TestRecoveredTailCountsTowardAutoCheckpoint: a replayed WAL tail
// seeds the growth counters, so a restart with a past-threshold tail
// checkpoints it away instead of re-replaying it on every Open.
func TestRecoveredTailCountsTowardAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap) // no auto-checkpointing
	const n = 60
	for i := 0; i < n; i++ {
		commitOne(t, db, "v0", i%durRows, int64(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithAutoCheckpoint(1024, 0))
	if got := db2.Stats().RecoveryReplayedTxns; got != n {
		t.Fatalf("replayed %d, want %d", got, n)
	}
	// The tail alone crosses the byte threshold: no new commits needed.
	waitFor(t, 5*time.Second, func() bool {
		return db2.Stats().AutoCheckpointCount >= 1
	}, "checkpoint of the recovered tail")
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3 := openDurable(t, dir, ankerdb.VMSnap, ankerdb.WithAutoCheckpoint(1024, 0))
	defer db3.Close()
	if got := db3.Stats().RecoveryReplayedTxns; got != 0 {
		t.Fatalf("tail re-replayed after its checkpoint: %d txns", got)
	}
	for i := 0; i < n; i++ { // n < durRows: each row written once
		if got := getOne(t, db3, "v0", i); got != int64(i) {
			t.Fatalf("v0[%d] = %d, want %d", i, got, i)
		}
	}
}

// TestAutoCheckpointFiresFromWALGrowth is the acceptance scenario: with
// WithAutoCheckpoint configured, commit volume alone — no manual
// Checkpoint() call anywhere — must produce a checkpoint, and recovery
// must then replay only the post-checkpoint tail.
func TestAutoCheckpointFiresFromWALGrowth(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap,
		ankerdb.WithAutoCheckpoint(4096, 0))
	const n = 200
	for i := 0; i < n; i++ {
		commitOne(t, db, fmt.Sprintf("v%d", i%durNumCols), i%durRows, int64(i))
	}
	waitFor(t, 5*time.Second, func() bool {
		return db.Stats().AutoCheckpointCount >= 1
	}, "scheduler checkpoint")
	st := db.Stats()
	if st.CheckpointCount < st.AutoCheckpointCount {
		t.Fatalf("CheckpointCount %d < AutoCheckpointCount %d", st.CheckpointCount, st.AutoCheckpointCount)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	st2 := db2.Stats()
	if st2.RecoveryReplayedTxns >= n {
		t.Fatalf("replayed all %d txns — the auto checkpoint covered nothing", st2.RecoveryReplayedTxns)
	}
	for i := n - durNumCols; i < n; i++ {
		if got := getOne(t, db2, fmt.Sprintf("v%d", i%durNumCols), i%durRows); got != int64(i) {
			t.Fatalf("v%d[%d] = %d, want %d", i%durNumCols, i%durRows, got, i)
		}
	}
}

// TestAutoCheckpointRecordThreshold: the record-count trigger fires
// independently of the byte trigger.
func TestAutoCheckpointRecordThreshold(t *testing.T) {
	db := openDurable(t, t.TempDir(), ankerdb.VMSnap,
		ankerdb.WithAutoCheckpoint(0, 16))
	defer db.Close()
	for i := 0; i < 40; i++ {
		commitOne(t, db, "v0", i%durRows, int64(i))
	}
	waitFor(t, 5*time.Second, func() bool {
		return db.Stats().AutoCheckpointCount >= 1
	}, "record-count-triggered checkpoint")
}

// TestAutoCheckpointInterval: the max-interval timer checkpoints a slow
// trickle that never crosses a size threshold.
func TestAutoCheckpointInterval(t *testing.T) {
	db := openDurable(t, t.TempDir(), ankerdb.VMSnap,
		ankerdb.WithAutoCheckpoint(1<<40, 1<<30), // size triggers unreachable
		ankerdb.WithAutoCheckpointInterval(10*time.Millisecond))
	defer db.Close()
	commitOne(t, db, "v0", 0, 1)
	waitFor(t, 5*time.Second, func() bool {
		return db.Stats().AutoCheckpointCount >= 1
	}, "interval-triggered checkpoint")
	// With nothing new appended the timer must go idle again.
	n := db.Stats().CheckpointCount
	time.Sleep(50 * time.Millisecond)
	if got := db.Stats().CheckpointCount; got != n {
		t.Fatalf("idle timer kept checkpointing: %d -> %d", n, got)
	}
}

// TestAutoCheckpointConcurrentWriters: the scheduler checkpoints while
// writers keep committing, under every snapshot strategy (run with
// -race). Manual checkpoints interleave through the same mutex.
func TestAutoCheckpointConcurrentWriters(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, strat,
				ankerdb.WithAutoCheckpoint(2048, 0),
				ankerdb.WithSyncPolicy(ankerdb.SyncNone))
			var stop atomic.Bool
			var commits atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						tx, err := db.Begin(ankerdb.OLTP)
						if err != nil {
							return
						}
						if err := tx.Set("t", fmt.Sprintf("v%d", w%durNumCols), (w*31+i)%durRows, int64(i)); err != nil {
							return
						}
						if tx.Commit() == nil {
							commits.Add(1)
						}
					}
				}(w)
			}
			waitFor(t, 10*time.Second, func() bool {
				return db.Stats().AutoCheckpointCount >= 2
			}, "two scheduled checkpoints under load")
			// A manual checkpoint coordinates with the scheduler.
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("manual checkpoint alongside scheduler: %v", err)
			}
			stop.Store(true)
			wg.Wait()
			total := commits.Load()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := openDurable(t, dir, strat)
			defer db2.Close()
			st := db2.Stats()
			if st.RecoveryReplayedTxns > total {
				t.Fatalf("replayed %d txns, only %d committed", st.RecoveryReplayedTxns, total)
			}
			commitOne(t, db2, "v0", 0, 424242)
			if got := getOne(t, db2, "v0", 0); got != 424242 {
				t.Fatalf("post-recovery commit = %d", got)
			}
		})
	}
}

// TestCrashMidCheckpointLeftoverTmp: a checkpoint.tmp orphaned by a
// crash mid-checkpoint must be ignored by recovery (the previous
// durable state stays authoritative) and cleaned up by Open.
func TestCrashMidCheckpointLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	for i := 0; i < 10; i++ {
		commitOne(t, db, "v0", i, int64(700+i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, db, "v0", 10, 710)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a half-written temporary.
	tmp := filepath.Join(dir, "checkpoint.tmp")
	if err := os.WriteFile(tmp, []byte("ANKCKPT1 half written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("orphaned checkpoint.tmp survived Open: %v", err)
	}
	for i := 0; i <= 10; i++ {
		if got := getOne(t, db2, "v0", i); got != int64(700+i) {
			t.Fatalf("v0[%d] = %d, want %d", i, got, 700+i)
		}
	}
}

// TestRecoveryStreamingMemory is the O(chunk) restart-memory
// acceptance: recovering a database whose checkpoint is >= 64 MiB must
// hold only chunk-sized transient buffers, reported via
// RecoveryPeakBytes — orders of magnitude below the checkpoint size
// the legacy slurping reader would have buffered.
func TestRecoveryStreamingMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB checkpoint build in -short mode")
	}
	const (
		rows = 1 << 19 // x 8 columns x (data+wts) x 8 bytes = 64 MiB
		cols = 8
	)
	schema := ankerdb.Schema{Table: "big"}
	for i := 0; i < cols; i++ {
		schema.Columns = append(schema.Columns, ankerdb.ColumnDef{Name: fmt.Sprintf("c%d", i), Type: ankerdb.Int64})
	}
	dir := t.TempDir()
	open := func() *ankerdb.DB {
		db, err := ankerdb.Open(
			ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
			ankerdb.WithCostModel(ankerdb.ZeroCost),
			ankerdb.WithDurability(dir),
			ankerdb.WithInitialSchema(schema, rows))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := 0; i < cols; i++ {
		if err := db.Load("big", fmt.Sprintf("c%d", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints: %v, %v", ckpts, err)
	}
	fi, err := os.Stat(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 64<<20 {
		t.Fatalf("checkpoint only %d bytes, want >= 64 MiB", fi.Size())
	}

	db2 := open()
	defer db2.Close()
	st := db2.Stats()
	if st.RecoveryPeakBytes == 0 {
		t.Fatal("RecoveryPeakBytes not tracked")
	}
	if st.RecoveryPeakBytes > 1<<20 {
		t.Fatalf("recovery held %d transient bytes for a %d-byte checkpoint — not O(chunk)",
			st.RecoveryPeakBytes, fi.Size())
	}
	for _, row := range []int{0, 12345, rows - 1} {
		r, err := db2.Begin(ankerdb.OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := r.Get("big", "c7", row); err != nil || v != int64(row) {
			t.Fatalf("c7[%d] = %d, %v", row, v, err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurabilityVarcharAcrossCheckpoint: VARCHAR values written before
// a checkpoint (recovered via the checkpointed dictionary + codes) and
// after it (recovered via WAL replay re-encoding the string) must both
// decode after recovery.
func TestDurabilityVarcharAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, ankerdb.VMSnap)
	setStr := func(row int, s string) {
		w, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.SetString("t", "name", row, s); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	setStr(1, "before-ckpt")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	setStr(2, "after-ckpt")
	setStr(3, "before-ckpt") // duplicate of a checkpointed dict entry
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, ankerdb.VMSnap)
	defer db2.Close()
	r, err := db2.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Commit() }()
	for row, want := range map[int]string{1: "before-ckpt", 2: "after-ckpt", 3: "before-ckpt"} {
		if got, err := r.GetString("t", "name", row); err != nil || got != want {
			t.Fatalf("name[%d] = %q, %v; want %q", row, got, err, want)
		}
	}
}
