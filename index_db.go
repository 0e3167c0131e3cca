package ankerdb

import (
	"fmt"

	"ankerdb/internal/index"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Secondary-index DDL and (re)build paths. The durability model is
// rebuild-at-recovery: index *entries* are never WAL-logged — commits
// pay zero extra log bytes for maintenance — and recovery instead
// rebuilds every index deterministically from the recovered column and
// visibility arrays after replay (rebuildDerived, apply.go). What is
// persisted is the *existence* of an index: schema-declared indexes
// ride the table record, online CreateIndex/DropIndex append index-DDL
// records to the same never-truncated schema log. The trade against
// logging entries: recovery pays one O(rows) pass per indexed column,
// which streams the same arrays rebuildDerived already scans, in
// exchange for a commit path whose WAL traffic is completely unchanged.

// buildColumnIndex builds an index over c's current contents. Each
// entry copies its row's actual birth/death extent, so a probe at any
// servable timestamp answers row visibility exactly like the
// visibility arrays would. Rows already dead at or below minTS are
// skipped — no servable reader can see them.
//
// The caller must exclude concurrent installs into c (all shard locks
// held, or single-threaded recovery/creation). Rows merely *reserved*
// by in-flight inserts are still unborn (birth NeverTS) and skipped;
// their birth install happens after the build publishes, under the
// shard lock, and maintains the index like any other commit.
func buildColumnIndex(c *column, kind IndexKind, minTS uint64) *index.Index {
	ix := index.New(kind, minTS)
	birth, death := c.tab.st.Birth(), c.tab.st.Death()
	capacity := c.tab.st.Capacity()
	for row := 0; row < capacity; row++ {
		b := birth.GetU(row)
		if b == storage.NeverTS {
			continue // unborn, reserved, or reclaimed
		}
		d := death.GetU(row)
		if d != 0 && d <= minTS {
			continue // dead below every servable timestamp
		}
		ix.Insert(c.data.Get(row), row, b, d)
	}
	return ix
}

// indexColumn publishes a fresh index of the given kind over c's
// contents, built under every shard commit lock with the completed
// watermark as its floor (returned): generations pinned below it fall
// back to the scan path, which reads the same arrays.
func (db *DB) indexColumn(c *column, kind IndexKind) (minTS uint64) {
	db.lockAllShards()
	defer db.unlockAllShards()
	minTS = db.oracle.Completed()
	c.idx.Store(buildColumnIndex(c, kind, minTS))
	return minTS
}

// reindexColumn rebuilds c's index (if any) from scratch after a bulk
// load replaced the column's contents.
func (db *DB) reindexColumn(c *column) {
	if old := c.idx.Load(); old != nil {
		db.indexColumn(c, old.Kind())
	}
}

// applyIndexDDL applies a logged CreateIndex/DropIndex record — on a
// replica, and in recovery's schema-log replay, where only existence is
// tracked (rebuildDerived fills the index once the arrays are
// recovered). Records that do not resolve (dropped tables, a schema
// prefix that ends early) are skipped like out-of-prefix commit records.
func (db *DB) applyIndexDDL(rec wal.IndexDDLRecord) {
	c, err := db.lookup(rec.Table, rec.Column)
	switch kind := IndexKind(rec.Kind); {
	case err != nil:
	case rec.Drop:
		c.idx.Store(nil)
	case !kind.Valid():
	case db.recovering:
		c.idx.Store(index.New(kind, 0))
	default:
		db.indexColumn(c, kind)
	}
}

// CreateIndex builds a secondary index of the given kind over an
// existing column, online: the build runs under every shard commit
// lock (commit installation is quiescent, so the captured state is
// exactly the completed prefix), publishes the index, and from then on
// commits maintain it inside their critical section. Transactions
// running during the build are unaffected — readers at timestamps
// below the build floor simply keep scanning.
func (db *DB) CreateIndex(tab, col string, kind IndexKind) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	if !kind.Valid() {
		return fmt.Errorf("%w: %d", ErrIndexKind, kind)
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	db.lockAllShards()
	if c.idx.Load() != nil {
		db.unlockAllShards()
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, tab, col)
	}
	// Under all shard locks the completed watermark equals the maximum
	// assigned timestamp: every commit at or below it is fully
	// installed, every later one will run after the index publishes.
	// Values displaced before the build live only in version chains the
	// build cannot see — hence the floor.
	minTS := db.oracle.Completed()
	c.idx.Store(buildColumnIndex(c, kind, minTS))
	db.unlockAllShards()
	db.tel.rec.RecordNote(telemetry.EvIndexDDL, 1, int64(minTS), 0,
		fmt.Sprintf("%s.%s %s", tab, col, kind))
	if db.wal != nil && !db.recovering {
		return db.wal.AppendIndexDDL(wrecIndexDDL(tab, col, kind, false))
	}
	return nil
}

// DropIndex removes the column's secondary index. In-flight probes
// holding the old structure finish against it — its entries stay
// valid — and later lookups fall back to the scan path.
func (db *DB) DropIndex(tab, col string) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	if old := c.idx.Swap(nil); old == nil {
		return fmt.Errorf("%w: %s.%s", ErrNoIndex, tab, col)
	}
	db.tel.rec.RecordNote(telemetry.EvIndexDDL, 0, 0, 0, fmt.Sprintf("%s.%s", tab, col))
	if db.wal != nil && !db.recovering {
		return db.wal.AppendIndexDDL(wrecIndexDDL(tab, col, NoIndex, true))
	}
	return nil
}
