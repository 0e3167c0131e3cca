package ankerdb_test

// The facade tests use only the public ankerdb package — no internal
// imports — which is exactly the acceptance bar for the API: open a
// database, create tables, commit OLTP writes, and run snapshot-
// isolated OLAP scans under every snapshot strategy.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ankerdb"
)

var strategies = []ankerdb.SnapshotStrategy{
	ankerdb.Physical, ankerdb.Fork, ankerdb.Rewired, ankerdb.VMSnap,
}

const testRows = 2048

func openTestDB(t *testing.T, strat ankerdb.SnapshotStrategy, opts ...ankerdb.Option) *ankerdb.DB {
	t.Helper()
	db, err := ankerdb.Open(append([]ankerdb.Option{
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithInitialSchema(ankerdb.Schema{
			Table: "acct",
			Columns: []ankerdb.ColumnDef{
				{Name: "bal", Type: ankerdb.Money},
				{Name: "flags", Type: ankerdb.Int64},
			},
		}, testRows),
	}, opts...)...)
	if err != nil {
		t.Fatalf("Open(%s): %v", strat, err)
	}
	return db
}

func mustCommit(t *testing.T, txn *ankerdb.Txn) {
	t.Helper()
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// set commits one OLTP write.
func set(t *testing.T, db *ankerdb.DB, tab, col string, row int, v int64) {
	t.Helper()
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Set(tab, col, row, v); err != nil {
		t.Fatalf("Set: %v", err)
	}
	mustCommit(t, w)
}

// TestSnapshotIsolation is the core acceptance test: an OLAP
// transaction pins its snapshot timestamp at Begin and must never
// observe writes committed afterwards, under every strategy. Stats
// reports the strategy by the name it was opened with.
func TestSnapshotIsolation(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			db := openTestDB(t, strat)
			defer db.Close()
			if got := db.Stats().Strategy; got != string(strat) {
				t.Fatalf("Stats.Strategy = %q, opened with %q", got, strat)
			}

			for row := 0; row < 8; row++ {
				set(t, db, "acct", "bal", row, 100)
			}

			r, err := db.Begin(ankerdb.OLAP)
			if err != nil {
				t.Fatalf("Begin(OLAP): %v", err)
			}

			// Writes committed after the OLAP begin: invisible to r,
			// even though its column snapshot is only created lazily by
			// the scan below (chain repair must hide them).
			for row := 0; row < 8; row++ {
				set(t, db, "acct", "bal", row, 999)
			}
			set(t, db, "acct", "bal", 2047, 555)

			got, err := r.Scan("acct", "bal")
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			for row := 0; row < 8; row++ {
				if got[row] != 100 {
					t.Fatalf("row %d: OLAP read %d, want pre-snapshot 100", row, got[row])
				}
			}
			if got[2047] != 0 {
				t.Fatalf("row 2047: OLAP read %d, want 0", got[2047])
			}
			if sum, _ := r.Aggregate("acct", "bal", ankerdb.Sum); sum != 800 {
				t.Fatalf("Sum = %d, want 800", sum)
			}
			if v, err := r.Get("acct", "bal", 3); err != nil || v != 100 {
				t.Fatalf("Get = %d, %v, want 100", v, err)
			}
			if st := r.Staleness(); st == 0 {
				t.Fatalf("Staleness = 0, want > 0 after post-begin commits")
			}
			mustCommit(t, r)

			// A fresh OLAP transaction (refresh default: every commit)
			// sees the new state.
			r2, _ := db.Begin(ankerdb.OLAP)
			if v, err := r2.Get("acct", "bal", 0); err != nil || v != 999 {
				t.Fatalf("fresh OLAP Get = %d, %v, want 999", v, err)
			}
			if rows, _ := r2.Filter("acct", "bal", 555, 555); len(rows) != 1 || rows[0] != 2047 {
				t.Fatalf("Filter(555) = %v, want [2047]", rows)
			}
			mustCommit(t, r2)
		})
	}
}

// TestReleaseAccounting checks the snapshot lifecycle manager's
// reference counting: every created column snapshot is released once
// the last transaction pin drops and the database is closed.
func TestReleaseAccounting(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			db := openTestDB(t, strat)
			set(t, db, "acct", "bal", 0, 1)

			var txns []*ankerdb.Txn
			for i := 0; i < 3; i++ {
				r, err := db.Begin(ankerdb.OLAP)
				if err != nil {
					t.Fatalf("Begin: %v", err)
				}
				if _, err := r.Scan("acct", "bal"); err != nil {
					t.Fatalf("Scan: %v", err)
				}
				txns = append(txns, r)
				set(t, db, "acct", "bal", i, int64(i)) // force rotation
			}
			st := db.Stats()
			if st.SnapshotsCreated == 0 || st.ActiveSnapshots == 0 {
				t.Fatalf("expected live snapshots, got %+v", st)
			}
			for _, r := range txns {
				mustCommit(t, r)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st = db.Stats()
			if st.ActiveSnapshots != 0 {
				t.Fatalf("%d snapshots leaked after Close (created %d, released %d)",
					st.ActiveSnapshots, st.SnapshotsCreated, st.SnapshotsReleased)
			}
		})
	}
}

// TestRotationReleasesIdleGeneration: when the refresh policy rotates
// a generation no transaction holds any more, the rotation itself must
// release its snapshots (regression: the manager's pin was dropped
// without destroying the dead generation).
func TestRotationReleasesIdleGeneration(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			db := openTestDB(t, strat)
			defer db.Close()

			r, _ := db.Begin(ankerdb.OLAP)
			if _, err := r.Scan("acct", "bal"); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			mustCommit(t, r) // generation now held only by the manager

			set(t, db, "acct", "bal", 0, 1) // default refresh=1: stale

			r2, _ := db.Begin(ankerdb.OLAP) // rotation destroys the old generation
			if _, err := r2.Scan("acct", "bal"); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			st := db.Stats()
			if st.SnapshotsCreated != 2 || st.ActiveSnapshots != 1 {
				t.Fatalf("after rotation: created %d, active %d, want 2 created / 1 active",
					st.SnapshotsCreated, st.ActiveSnapshots)
			}
			mustCommit(t, r2)
		})
	}
}

// TestFineGranularSnapshots checks the paper's headline mode: only the
// columns a query touches are snapshotted.
func TestFineGranularSnapshots(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap)
	defer db.Close()
	set(t, db, "acct", "bal", 0, 42)

	r, _ := db.Begin(ankerdb.OLAP)
	if _, err := r.Scan("acct", "bal"); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n := db.Stats().SnapshotsCreated; n != 1 {
		t.Fatalf("scanning one of two columns created %d snapshots, want 1", n)
	}
	if _, err := r.Scan("acct", "flags"); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n := db.Stats().SnapshotsCreated; n != 2 {
		t.Fatalf("after second column: %d snapshots, want 2", n)
	}
	// Re-touching a snapshotted column reuses the generation's snapshot.
	if _, err := r.Scan("acct", "bal"); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n := db.Stats().SnapshotsCreated; n != 2 {
		t.Fatalf("re-scan created a snapshot: %d, want 2", n)
	}
	mustCommit(t, r)
}

// TestConcurrentWritersAndScanners runs balanced OLTP transfers against
// concurrent OLAP aggregations: under snapshot isolation every scan
// must observe the invariant total, under every strategy. Run with
// -race in CI.
func TestConcurrentWritersAndScanners(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			db := openTestDB(t, strat, ankerdb.WithSnapshotRefresh(4))
			defer db.Close()

			const (
				accounts  = 64
				initial   = 1000
				writers   = 4
				transfers = 50
				scanners  = 2
				scans     = 25
			)
			init := make([]int64, accounts)
			for i := range init {
				init[i] = initial
			}
			if err := db.Load("acct", "bal", init); err != nil {
				t.Fatalf("Load: %v", err)
			}
			const total = accounts * initial

			var wg sync.WaitGroup
			errs := make(chan error, writers+scanners)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					rnd := uint32(seed*2654435761 + 1)
					next := func(n int) int {
						rnd = rnd*1664525 + 1013904223
						return int(rnd>>16) % n
					}
					for i := 0; i < transfers; i++ {
						for {
							from, to := next(accounts), next(accounts)
							if from == to {
								to = (to + 1) % accounts
							}
							txn, err := db.Begin(ankerdb.OLTP)
							if err != nil {
								errs <- err
								return
							}
							vf, _ := txn.Get("acct", "bal", from)
							vt, _ := txn.Get("acct", "bal", to)
							txn.Set("acct", "bal", from, vf-10)
							txn.Set("acct", "bal", to, vt+10)
							err = txn.Commit()
							if err == nil {
								break
							}
							if !errors.Is(err, ankerdb.ErrConflict) {
								errs <- fmt.Errorf("commit: %w", err)
								return
							}
							// Conflict: precision locking aborted us; retry.
						}
					}
				}(w)
			}
			for s := 0; s < scanners; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < scans; i++ {
						r, err := db.Begin(ankerdb.OLAP)
						if err != nil {
							errs <- err
							return
						}
						sum, err := r.Aggregate("acct", "bal", ankerdb.Sum)
						if err != nil {
							errs <- err
							return
						}
						if sum != total {
							errs <- fmt.Errorf("scan %d: sum %d, want %d (isolation broken)", i, sum, total)
							return
						}
						if err := r.Commit(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			final, _ := db.Begin(ankerdb.OLAP)
			sum, err := final.Aggregate("acct", "bal", ankerdb.Sum)
			if err != nil || sum != total {
				t.Fatalf("final sum %d, %v, want %d", sum, err, total)
			}
			mustCommit(t, final)
		})
	}
}

// TestPrecisionLocking checks that a committed write into a range a
// concurrent transaction filtered on aborts that transaction at commit.
func TestPrecisionLocking(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap)
	defer db.Close()
	set(t, db, "acct", "bal", 0, 50)

	a, _ := db.Begin(ankerdb.OLTP)
	if rows, err := a.Filter("acct", "bal", 0, 100); err != nil || len(rows) != testRows {
		t.Fatalf("Filter: %d rows, %v", len(rows), err)
	}
	a.Set("acct", "flags", 0, 1)

	set(t, db, "acct", "bal", 1, 60) // intersects a's predicate

	if err := a.Commit(); !errors.Is(err, ankerdb.ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
	if db.Stats().Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", db.Stats().Conflicts)
	}

	// Point-read validation: a commit overwriting a read row aborts too.
	b, _ := db.Begin(ankerdb.OLTP)
	if _, err := b.Get("acct", "bal", 0); err != nil {
		t.Fatalf("Get: %v", err)
	}
	b.Set("acct", "flags", 1, 1)
	set(t, db, "acct", "bal", 0, 70)
	if err := b.Commit(); !errors.Is(err, ankerdb.ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}

	// Disjoint writes commit fine.
	c, _ := db.Begin(ankerdb.OLTP)
	c.Set("acct", "flags", 2, 1)
	mustCommit(t, c)
}

// TestReadOwnWritesAndAbort: staged writes are visible to their own
// transaction, invisible to others, and gone after Abort.
func TestReadOwnWritesAndAbort(t *testing.T) {
	db := openTestDB(t, ankerdb.Physical)
	defer db.Close()

	w, _ := db.Begin(ankerdb.OLTP)
	w.Set("acct", "bal", 5, 77)
	if v, _ := w.Get("acct", "bal", 5); v != 77 {
		t.Fatalf("own read = %d, want 77", v)
	}
	other, _ := db.Begin(ankerdb.OLTP)
	if v, _ := other.Get("acct", "bal", 5); v != 0 {
		t.Fatalf("foreign read of staged write = %d, want 0", v)
	}
	mustCommit(t, other)
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := w.Commit(); !errors.Is(err, ankerdb.ErrTxnDone) {
		t.Fatalf("Commit after Abort = %v, want ErrTxnDone", err)
	}
	check, _ := db.Begin(ankerdb.OLTP)
	if v, _ := check.Get("acct", "bal", 5); v != 0 {
		t.Fatalf("aborted write leaked: %d", v)
	}
	mustCommit(t, check)
}

// TestVarchar exercises the dictionary-backed string accessors.
func TestVarchar(t *testing.T) {
	db, err := ankerdb.Open(
		ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
	)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	schema := ankerdb.Schema{
		Table:   "users",
		Columns: []ankerdb.ColumnDef{{Name: "name", Type: ankerdb.Varchar}},
	}
	if err := db.CreateTable(schema, 16); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := db.CreateTable(schema, 16); !errors.Is(err, ankerdb.ErrTableExists) {
		t.Fatalf("duplicate CreateTable = %v, want ErrTableExists", err)
	}
	if err := db.LoadStrings("users", "name", []string{"ada", "grace"}); err != nil {
		t.Fatalf("LoadStrings: %v", err)
	}
	w, _ := db.Begin(ankerdb.OLTP)
	if err := w.SetString("users", "name", 2, "edsger"); err != nil {
		t.Fatalf("SetString: %v", err)
	}
	mustCommit(t, w)
	r, _ := db.Begin(ankerdb.OLAP)
	for i, want := range []string{"ada", "grace", "edsger"} {
		if got, err := r.GetString("users", "name", i); err != nil || got != want {
			t.Fatalf("GetString(%d) = %q, %v, want %q", i, got, err, want)
		}
	}
	mustCommit(t, r)
}

// TestRefreshPolicy checks WithSnapshotRefresh(n): OLAP transactions
// share a generation until n commits complete, then rotate.
func TestRefreshPolicy(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap, ankerdb.WithSnapshotRefresh(3))
	defer db.Close()

	r1, _ := db.Begin(ankerdb.OLAP)
	ts1 := r1.SnapshotTS()
	mustCommit(t, r1)

	set(t, db, "acct", "bal", 0, 1) // 1 commit < 3: same generation
	r2, _ := db.Begin(ankerdb.OLAP)
	if r2.SnapshotTS() != ts1 {
		t.Fatalf("generation rotated after 1 commit with refresh=3")
	}
	if r2.Staleness() != 1 {
		t.Fatalf("Staleness = %d, want 1", r2.Staleness())
	}
	mustCommit(t, r2)

	set(t, db, "acct", "bal", 0, 2)
	set(t, db, "acct", "bal", 0, 3) // 3rd commit: stale
	r3, _ := db.Begin(ankerdb.OLAP)
	if r3.SnapshotTS() == ts1 {
		t.Fatalf("generation did not rotate after 3 commits")
	}
	if r3.Staleness() != 0 {
		t.Fatalf("fresh generation staleness = %d, want 0", r3.Staleness())
	}
	mustCommit(t, r3)
}

// TestErrors covers the facade's failure modes.
func TestErrors(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap)

	r, _ := db.Begin(ankerdb.OLAP)
	if err := r.Set("acct", "bal", 0, 1); !errors.Is(err, ankerdb.ErrReadOnly) {
		t.Fatalf("OLAP Set = %v, want ErrReadOnly", err)
	}
	if _, err := r.Get("nope", "bal", 0); !errors.Is(err, ankerdb.ErrNoSuchTable) {
		t.Fatalf("Get = %v, want ErrNoSuchTable", err)
	}
	if _, err := r.Get("acct", "nope", 0); !errors.Is(err, ankerdb.ErrNoSuchColumn) {
		t.Fatalf("Get = %v, want ErrNoSuchColumn", err)
	}
	if _, err := r.Get("acct", "bal", testRows); !errors.Is(err, ankerdb.ErrRowRange) {
		t.Fatalf("Get = %v, want ErrRowRange", err)
	}
	if _, err := r.GetString("acct", "bal", 0); !errors.Is(err, ankerdb.ErrType) {
		t.Fatalf("GetString = %v, want ErrType", err)
	}
	mustCommit(t, r)

	if _, err := ankerdb.Open(ankerdb.WithSnapshotStrategy("no-such-strategy")); err == nil {
		t.Fatalf("Open with bogus strategy succeeded")
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := db.Begin(ankerdb.OLTP); !errors.Is(err, ankerdb.ErrClosed) {
		t.Fatalf("Begin after Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); !errors.Is(err, ankerdb.ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

// TestVacuum checks that version chains shrink once no reader needs
// the old versions.
func TestVacuum(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap)
	defer db.Close()
	for i := 0; i < 10; i++ {
		set(t, db, "acct", "bal", 0, int64(i))
	}
	if n := db.Stats().VersionNodes; n < 10 {
		t.Fatalf("VersionNodes = %d, want >= 10", n)
	}
	db.Vacuum()
	if n := db.Stats().VersionNodes; n != 0 {
		t.Fatalf("VersionNodes after Vacuum = %d, want 0", n)
	}
}
