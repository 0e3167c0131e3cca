package ankerdb

import (
	"fmt"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/storage"
	"ankerdb/internal/wal"
)

// Table-level DDL: DropTable and Truncate. Both are durability-logged
// as marker records in the never-truncated schema log (torn-tail safe
// exactly like index DDL), stamped with the completed commit timestamp
// at which they ran, and replayed by recovery after checkpoint load and
// WAL replay so their timestamp decides exactly which replayed rows
// they cover — a checkpoint older or newer than the DDL both recover
// correctly.
//
// Neither operation is MVCC-versioned: a drop or truncate is a barrier,
// not a commit. Transactions that staged reads or writes against the
// table before the DDL abort at commit through the epoch guard
// (ddlAborted), and OLAP snapshot generations pinned before the DDL may
// observe it non-transactionally — captured pages keep the old bytes,
// uncaptured state reflects the new. The memory of a dropped table is
// only unmapped once the GC floor passes the drop timestamp, so pinned
// readers never fault; until then the slot is a tombstone.

// DropTable removes the table: the name becomes free for re-creation
// immediately, staged transactions against it abort at commit, and its
// mapped column chunks are released wholesale once no running
// transaction or pinned snapshot generation can still reach them
// (checked here and again by the reclaimer). The table's secondary
// indexes and visibility log go with it. With durability enabled the
// drop appends a schema-log marker record; recovery replays it exactly
// once, against whichever mix of checkpoint and WAL state survived.
func (db *DB) DropTable(name string) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	closed := db.closed
	t := db.tables[name]
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	db.lockAllShards()
	defer db.unlockAllShards()
	// Under every shard lock the completed watermark equals the newest
	// assigned timestamp: every commit at or below ts is fully
	// installed, every later one runs after the epoch bump and aborts.
	ts := db.oracle.Completed()
	db.dropAt(t, ts)
	// The name is released and the drop logged under db.mu — the same
	// lock CreateTable publishes and logs under — so the schema log
	// always orders this record before a racing re-creation's.
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, name)
	if db.wal == nil {
		return nil
	}
	return db.wal.AppendTableDDL(wal.TableDDLRecord{Name: name, Op: wal.TableDDLDrop, TS: ts})
}

// Truncate discards every row of the table — initial rows included —
// leaving an empty table with the same schema and indexes. The row
// allocator restarts at slot zero and the visible count is zero at
// every timestamp. Like DropTable it is a barrier, not a commit:
// transactions that staged against the table abort at commit, and
// bulk loads after a truncate land in unborn rows (use Insert to
// repopulate). Version chains survive for pinned pre-truncate
// generations and are vacuumed away normally. With durability enabled
// the truncation appends a schema-log marker stamped with the current
// completed timestamp; recovery re-applies it to exactly the rows
// committed at or below that stamp, so rows inserted after the
// truncate survive a crash.
func (db *DB) Truncate(name string) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	closed := db.closed
	t := db.tables[name]
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	db.lockAllShards()
	ts := db.oracle.Completed()
	db.truncateAt(t, ts)
	db.unlockAllShards()
	if db.wal == nil {
		return nil
	}
	return db.wal.AppendTableDDL(wal.TableDDLRecord{Name: name, Op: wal.TableDDLTruncate, TS: ts})
}

// truncateRows kills every row born at or below ts: birth back to the
// NeverTS sentinel, death cleared. Rows born after ts — possible only
// during recovery replay, where commits above the truncate's stamp
// have already been re-applied — survive untouched. Per-row stores on
// purpose: they go through the fault path that breaks copy-on-write
// sharing, so pinned pre-truncate snapshots keep their captured pages.
// The caller holds every shard commit lock (or is single-threaded
// recovery).
func truncateRows(t *table, ts uint64) {
	birth, death := t.st.Birth(), t.st.Death()
	for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
		if b := birth.GetU(row); b != storage.NeverTS && b <= ts {
			birth.SetU(row, storage.NeverTS)
			death.SetU(row, 0)
		}
	}
}

// freeDropped releases a dropped table's storage: every mapped chunk
// of every extent, the secondary indexes, the version chains and the
// block metadata. Idempotent. The caller holds every shard commit lock
// (or is single-threaded recovery) and has established that the GC
// floor lies strictly above the drop timestamp — no running
// transaction or pinned generation can resolve the table anymore.
func (db *DB) freeDropped(t *table) {
	if t.freed {
		return
	}
	t.freed = true
	t.pending.Store(0)
	for _, c := range t.cols {
		c.idx.Store(nil)
		c.chain = mvcc.NewChainStore()
		empty := []*mvcc.BlockMeta{}
		c.metas.Store(&empty)
	}
	t.visLogReset(0)
	t.st.Free()
}

// tableEpoch is a transaction's record of a table's DDL epoch at the
// moment it first staged a read, write or row op against it (txn.go).
type tableEpoch struct {
	tab   *table
	epoch uint64
}

// ddlAborted reports the abort error for a transaction whose footprint
// includes a table dropped or truncated since it staged: ErrNoSuchTable
// for drops, ErrConflict for truncations (the table still exists, the
// transaction merely lost the race). Runs under the owning shard's
// commit lock on the commit path; epoch loads are atomic.
func ddlAborted(epochs []tableEpoch) error {
	for _, e := range epochs {
		if e.tab.ddlEpoch.Load() == e.epoch {
			continue
		}
		name := e.tab.st.Schema().Table
		if e.tab.dropped.Load() {
			return fmt.Errorf("%w: %q was dropped during the transaction", ErrNoSuchTable, name)
		}
		return fmt.Errorf("%w: table %q was truncated during the transaction", ErrConflict, name)
	}
	return nil
}
