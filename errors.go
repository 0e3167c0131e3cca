package ankerdb

import (
	"errors"
	"fmt"

	"ankerdb/internal/wal"
)

// Errors returned by the engine facade.
var (
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = errors.New("ankerdb: database is closed")

	// ErrTxnDone is returned by operations on a committed or aborted
	// transaction.
	ErrTxnDone = errors.New("ankerdb: transaction already finished")

	// ErrReadOnly is returned when an OLAP transaction attempts a write.
	ErrReadOnly = errors.New("ankerdb: OLAP transactions are read-only")

	// ErrConflict is returned by Commit when precision-locking
	// validation found that a concurrent commit invalidated one of the
	// transaction's reads; the transaction has been aborted.
	ErrConflict = errors.New("ankerdb: serialization conflict")

	// ErrNoSuchTable is returned for unknown table names.
	ErrNoSuchTable = errors.New("ankerdb: no such table")

	// ErrNoSuchColumn is returned for unknown column names.
	ErrNoSuchColumn = errors.New("ankerdb: no such column")

	// ErrRowRange is returned for row indexes outside a table's mapped
	// capacity. The returned error names the table, column and
	// offending row index; match it with errors.Is.
	ErrRowRange = errors.New("ankerdb: row index out of range")

	// ErrRowNotVisible is returned for rows that exist physically but
	// are not visible at the transaction's read timestamp: never
	// inserted, born after the snapshot, already deleted, or staged for
	// deletion by the transaction itself. It also matches ErrRowRange
	// under errors.Is, because "no such row at this snapshot" subsumes
	// the fixed-capacity failure older callers tested for.
	ErrRowNotVisible = errors.New("ankerdb: row not visible at read timestamp")

	// ErrTableExists is returned by CreateTable for duplicate names.
	ErrTableExists = errors.New("ankerdb: table already exists")

	// ErrType is returned when a string accessor is used on a
	// non-VARCHAR column.
	ErrType = errors.New("ankerdb: column type mismatch")

	// ErrNoDurability is returned by Checkpoint when the database was
	// opened without WithDurability.
	ErrNoDurability = errors.New("ankerdb: durability not enabled")

	// ErrNotOLAP is returned by Txn.Query on a non-OLAP transaction:
	// queries execute against a pinned snapshot generation, which only
	// OLAP transactions hold.
	ErrNotOLAP = errors.New("ankerdb: queries require an OLAP transaction")

	// ErrIndexExists is returned by CreateIndex when the column already
	// has a secondary index.
	ErrIndexExists = errors.New("ankerdb: index already exists")

	// ErrNoIndex is returned by DropIndex when the column has no
	// secondary index.
	ErrNoIndex = errors.New("ankerdb: no index on column")

	// ErrIndexKind is returned by CreateIndex for an index kind that is
	// neither Hash nor Ordered.
	ErrIndexKind = errors.New("ankerdb: invalid index kind")

	// ErrReplicaRead is returned by every local mutation (OLTP Begin,
	// DDL, bulk loads) on a database opened WithReplicaOf: a replica's
	// state is owned by the primary's record stream until Promote.
	ErrReplicaRead = errors.New("ankerdb: replica is read-only")

	// ErrNotReplica is returned by Promote on a database that was not
	// opened WithReplicaOf (or was already promoted).
	ErrNotReplica = errors.New("ankerdb: not a replica")

	// ErrStalePromotion is returned by Promote when the replica's
	// applied watermark is below the caller's required timestamp:
	// promoting it would lose commits some other replica (or the failed
	// primary) had acknowledged. Replication keeps running; retry after
	// the replica catches up, or promote the replica that is ahead.
	ErrStalePromotion = errors.New("ankerdb: replica too stale to promote")

	// ErrTooManySessions is returned to a dialing client when the
	// serving endpoint is at its WithServeMaxSessions admission cap.
	ErrTooManySessions = errors.New("ankerdb: session limit reached")
)

// Recovery corruption sentinels, re-exported from internal/wal so
// callers can classify Open failures with errors.Is without importing
// internal packages. The concrete error wrapping each sentinel names
// the offending file and byte offset. Note what is NOT corruption: a
// torn tail — a partially written final frame — is the expected
// residue of a crash, silently cut off and counted in
// RecoveryReport.TailBytes.
var (
	// ErrCorruptWAL matches recovery failures caused by an undecodable
	// write-ahead-log or schema-log record: an unsupported segment
	// header, or a CRC-valid frame whose payload does not decode.
	ErrCorruptWAL = wal.ErrCorruptWAL

	// ErrCorruptCheckpoint matches recovery failures caused by a
	// damaged checkpoint file: bad magic, a missing trailer, a body
	// that does not parse, or a checksum mismatch.
	ErrCorruptCheckpoint = wal.ErrCorruptCheckpoint
)

// errRowRange builds the named ErrRowRange error for (table, column,
// row) against the table's current capacity; col may be empty for
// whole-row operations (Delete).
func errRowRange(tab, col string, row, capacity int) error {
	at := tab
	if col != "" {
		at = tab + "." + col
	}
	return fmt.Errorf("%w: row %d of %s (capacity %d)", ErrRowRange, row, at, capacity)
}

// notVisibleError names a row that exists physically but is not part
// of the visible row set at the transaction's read timestamp. It
// matches both ErrRowNotVisible and ErrRowRange under errors.Is.
type notVisibleError struct {
	tab, col string
	row      int
	ts       uint64
}

func (e *notVisibleError) Error() string {
	at := e.tab
	if e.col != "" {
		at = e.tab + "." + e.col
	}
	return fmt.Sprintf("ankerdb: row %d of %s not visible at read timestamp %d", e.row, at, e.ts)
}

func (e *notVisibleError) Is(target error) bool {
	return target == ErrRowNotVisible || target == ErrRowRange
}

// errHalfBootstrapped is what a snapshot pin gets on a replica whose
// in-place re-bootstrap died half-way (DB.halfBootstrapped); the
// connector keeps retrying, and reads resume with the first bootstrap
// that completes. Promote wraps it in ErrStalePromotion.
var errHalfBootstrapped = errors.New("ankerdb: replica re-bootstrap incomplete, no consistent state to read")
