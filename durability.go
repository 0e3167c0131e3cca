package ankerdb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Durability glue between the engine and internal/wal: redo-record
// conversion for the commit pipeline, snapshot-driven checkpointing
// (manual and scheduler-driven), durable bulk loads, and Open-time
// crash recovery.

// tableRecord converts a schema into its schema-log form, including
// declared secondary-index kinds (a trailing extension old logs lack).
func tableRecord(schema Schema, rows int) wal.TableRecord {
	rec := wal.TableRecord{Name: schema.Table, Rows: rows}
	for _, c := range schema.Columns {
		rec.Columns = append(rec.Columns, wal.ColumnDef{Name: c.Name, Type: uint8(c.Type), Index: uint8(c.Index)})
	}
	return rec
}

// tableSchema is tableRecord's inverse: the schema a logged table
// record declares.
func tableSchema(tr wal.TableRecord) Schema {
	schema := Schema{Table: tr.Name}
	for _, c := range tr.Columns {
		schema.Columns = append(schema.Columns, ColumnDef{Name: c.Name, Type: ColumnType(c.Type), Index: IndexKind(c.Index)})
	}
	return schema
}

// wrecIndexDDL converts an online CreateIndex/DropIndex into its
// schema-log form.
func wrecIndexDDL(tab, col string, kind IndexKind, drop bool) wal.IndexDDLRecord {
	return wal.IndexDDLRecord{Table: tab, Column: col, Kind: uint8(kind), Drop: drop}
}

// redoRecord converts a committed transaction's record into its WAL
// form. VARCHAR writes carry the decoded string so replay can re-seed
// the dictionary: a bare code would only be meaningful against the
// exact dictionary state of the crashed process. Row ops ride in the
// same record (the kind-3 layout), so one frame carries the whole
// transaction. It runs on the commit hot path under the shard lock, so
// the table list is locked once for the whole record, not per write.
func (db *DB) redoRecord(rec mvcc.CommitRecord) wal.CommitRecord {
	out := wal.CommitRecord{TS: rec.TS, Writes: make([]wal.RedoWrite, 0, len(rec.Writes))}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, e := range rec.Writes {
		w := wal.RedoWrite{Table: e.Col.Table, Col: e.Col.Col, Row: e.Row, Val: e.New}
		if c := db.tabList[e.Col.Table].cols[e.Col.Col]; c.def.Type == Varchar {
			w.Str, w.HasStr = c.dict.Decode(e.New), true
		}
		out.Writes = append(out.Writes, w)
	}
	for _, op := range rec.Ops {
		out.Ops = append(out.Ops, wal.RowOp{Table: op.Table, Row: op.Row, Del: op.Del})
	}
	return out
}

// Checkpoint writes a consistent on-disk checkpoint and truncates the
// write-ahead log below its timestamp. It is the paper's snapshot-
// consumer pattern applied to durability: the checkpointer pins an
// OLAP snapshot generation (through whichever snapshot strategy the
// database runs) and streams the snapshotted column regions plus
// dictionaries to disk, so OLTP writers are never stalled — they only
// ever see the usual brief shard-lock hold of a first-touch column
// snapshot. Rows newer than the checkpoint timestamp may be captured;
// replay's newer-wins rule makes that harmless, because their WAL
// records survive truncation.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNoDurability
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrClosed
	}
	db.mu.RUnlock()

	start := time.Now()
	// A fresh generation, not the current one: a column snapshot cached
	// in the current generation by an earlier OLAP pin could predate a
	// bulk load, and checkpointing it would persist pre-load data while
	// the truncation below reclaims the load's (timestamp-less) records.
	// Read side of the re-bootstrap gate (DB.olapGate): the pinned
	// generation must not span a replica's in-place re-bootstrap, which
	// fast-forwards the captured arrays under it.
	if err := db.pinGate(); err != nil {
		return err
	}
	defer db.olapGate.RUnlock()
	// The scheduler's growth baselines are read before the capture, so
	// records appended while it runs count toward the next trigger: the
	// truncation below keeps every record above g.ts.
	baseBytes, baseRecords := db.wal.Bytes(), db.wal.Records()
	g := db.snaps.acquireFresh()
	defer db.snaps.release(g)
	// Capture the table list only after the generation's timestamp is
	// pinned: any table created from here on can only receive commit
	// timestamps above it, so its rows are fully covered by the WAL
	// records the truncation below g.ts retains. Dropped slots are
	// skipped — their drop record survives in the schema log and replay
	// re-drops whatever state an older checkpoint would have carried.
	tabs := db.liveTables()
	err := db.wal.WriteCheckpoint(g.ts, len(tabs), func(w *wal.CheckpointWriter) error {
		for _, t := range tabs {
			if err := writeTableSection(w, g, t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Reset the scheduler's growth baselines: thresholds measure WAL
	// growth since THIS checkpoint from now on. Written under ckptMu, so
	// a manual checkpoint also pushes the automatic one out.
	db.ckptBaseBytes.Store(baseBytes)
	db.ckptBaseRecords.Store(baseRecords)
	db.st.checkpoints.Add(1)
	elapsed := time.Since(start)
	db.tel.checkpoint.Observe(elapsed)
	db.tel.rec.Record(telemetry.EvCheckpoint, int64(g.ts), 0, elapsed.Nanoseconds())
	return nil
}

// autoCkptDue reports whether WAL growth since the last checkpoint has
// crossed a configured auto-checkpoint threshold. Reads only atomics:
// it runs on the commit path (to decide whether to kick the scheduler)
// and in the scheduler itself.
func (db *DB) autoCkptDue() bool {
	if db.autoCkptBytes > 0 && db.wal.Bytes()-db.ckptBaseBytes.Load() >= db.autoCkptBytes {
		return true
	}
	if db.autoCkptRecords > 0 && db.wal.Records()-db.ckptBaseRecords.Load() >= db.autoCkptRecords {
		return true
	}
	return false
}

// kickAutoCkpt wakes the checkpoint scheduler if a growth threshold is
// crossed. One buffered slot: checkpointing is idempotent, kicks
// coalesce. Called after WAL appends (batch leaders, bulk loads and
// each stream frame a replica applies), outside any shard lock hold
// that matters — it is one atomic comparison plus a non-blocking send.
func (db *DB) kickAutoCkpt() {
	if db.ckptKick == nil || !db.autoCkptDue() {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default: // a kick is already pending
	}
}

// autoCheckpointer is the background checkpoint scheduler (started by
// Open when WithAutoCheckpoint / WithAutoCheckpointInterval configure a
// trigger): it checkpoints when kicked past a WAL-growth threshold, and
// — with an interval configured — whenever the timer finds new records
// appended since the last checkpoint. All runs go through Checkpoint()
// and its mutex, so scheduler, manual callers, and Close never overlap;
// Close waits for the scheduler to drain before closing the log.
func (db *DB) autoCheckpointer(interval time.Duration) {
	defer close(db.ckptDone)
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-db.ckptQuit:
			return
		case <-db.ckptKick:
			if !db.autoCkptDue() {
				continue // a racing manual checkpoint already covered it
			}
		case <-tick:
			if db.wal.Records() == db.ckptBaseRecords.Load() {
				continue // nothing new since the last checkpoint
			}
		}
		switch err := db.Checkpoint(); {
		case err == nil:
			db.st.autoCheckpoints.Add(1)
		case errors.Is(err, ErrClosed), errors.Is(err, wal.ErrLogClosed):
			return // shutting down
		default:
			// Poisoned log or I/O failure: nothing to do here — commits
			// are already failing loudly, and retrying on the next
			// trigger is free.
		}
	}
}

// RecoveryReport summarizes what Open-time crash recovery did. All
// fields are zero for a database opened without WithDurability or onto
// an empty directory.
type RecoveryReport struct {
	// ReplayedTxns is the number of WAL commit records re-applied
	// (records fully covered by the checkpoint are not counted).
	ReplayedTxns uint64
	// ReplayedLoads is the number of bulk-load chunk records re-applied.
	ReplayedLoads uint64
	// TailBytes is the total number of torn-tail bytes cut off across
	// all replayed log files: bytes past the last intact frame of a
	// segment, the residue of a crash mid-append. A torn tail is
	// expected, not corruption — the commits it held never reported
	// durable.
	TailBytes uint64
	// RebuiltIndexes is the number of secondary indexes rebuilt from
	// the recovered arrays (index entries are never logged; existence
	// replays from the schema log, contents rebuild at Open).
	RebuiltIndexes int
}

// RecoveryReport reports what crash recovery did when this database
// was opened. The report is written once during Open, before the DB is
// shared, so it is safe to read at any time.
func (db *DB) RecoveryReport() RecoveryReport {
	r := RecoveryReport{
		ReplayedTxns:   db.recoveredTxns,
		ReplayedLoads:  db.recoveredLoads,
		RebuiltIndexes: db.recoveredIndexes,
	}
	if db.wal != nil {
		r.TailBytes = db.wal.TailBytes()
	}
	return r
}

// loadChunkRows bounds one bulk-load WAL record: large loads become a
// series of window records, so replay (and the torn-tail blast radius)
// stays O(chunk) however big the load is.
const loadChunkRows = 8192

// logLoad appends a bulk load's chunk records (one of vals/strs is
// set) to the column's shard WAL: one write per chunk, one fsync for
// the whole load. Called with ckptMu held — see loadColumn.
func (db *DB) logLoad(c *column, vals []int64, strs []string) error {
	n := len(vals)
	if strs != nil {
		n = len(strs)
	}
	recs := make([]wal.LoadRecord, 0, (n+loadChunkRows-1)/loadChunkRows)
	for start := 0; start < n; start += loadChunkRows {
		end := start + loadChunkRows
		if end > n {
			end = n
		}
		rec := wal.LoadRecord{Table: c.id.Table, Col: c.id.Col, Start: start}
		if strs != nil {
			rec.Strs, rec.HasStrs = strs[start:end], true
		} else {
			rec.Vals = vals[start:end]
		}
		recs = append(recs, rec)
	}
	return db.wal.AppendLoads(db.shardOf(c.id), recs)
}

// visKey / visOp buffer replayed row ops per (table, row): segments
// replay shard by shard in arbitrary cross-shard order, so births and
// deaths of one row are collected first and applied in timestamp order
// afterwards — making row-op replay as order-insensitive as the
// newer-wins rule makes writes.
type visKey struct{ table, row int }

type visOp struct {
	ts  uint64
	del bool
}

// recover rebuilds engine state from the durability directory: replay
// the schema log (recreating every table in original index order),
// load the newest checkpoint into the column and visibility arrays
// (growing tables to the checkpointed capacity), then re-apply WAL
// commit records through the shared apply rules (apply.go). Replay is
// idempotent by commit timestamp — a write lands only if its record is
// newer than the row's current write timestamp, and row ops are
// buffered and applied in timestamp order per row — so record order
// across shard logs is irrelevant and checkpoint-covered records are
// naturally skipped. Finally the oracle is re-seeded from the newest
// durable commit timestamp and every table's row state is rebuilt from
// the recovered visibility arrays.
func (db *DB) recover() error {
	db.recovering = true
	defer func() { db.recovering = false }()

	// Table-DDL markers (drop/truncate) are collected in log order and
	// applied only after the checkpoint and WAL are replayed: each
	// marker's timestamp then decides exactly which recovered rows it
	// covers, making replay correct whether the surviving checkpoint
	// predates or postdates the DDL.
	type pendingDDL struct {
		t  *table
		op uint8
		ts uint64
	}
	var ddl []pendingDDL
	if err := db.wal.ReplaySchemaDDL(func(tr wal.TableRecord) error {
		return db.CreateTable(tableSchema(tr), tr.Rows)
	}, func(ir wal.IndexDDLRecord) error {
		db.applyIndexDDL(ir) // in log order over the declared state
		return nil
	}, func(dr wal.TableDDLRecord) error {
		t := db.tables[dr.Name]
		if t == nil {
			return nil // out-of-prefix, skipped like index DDL
		}
		ddl = append(ddl, pendingDDL{t: t, op: dr.Op, ts: dr.TS})
		if dr.Op == wal.TableDDLDrop {
			// Release the name now so a later re-creation record in the
			// log replays against a free name; the slot stays occupied.
			delete(db.tables, dr.Name)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("ankerdb: recovery: schema log: %w", err)
	}

	// The checkpoint may have captured rows committed after its
	// timestamp whose WAL records were then lost to a crash under
	// SyncNone. Seeding at the max captured stamp (write, birth or
	// death) keeps those rows' timestamps in the past, so re-issued
	// commit timestamps can never collide with a recovered row's.
	var maxTS uint64
	noteTS := func(v uint64) { maxTS = max(maxTS, v) }
	ckptTS, _, err := db.wal.LoadCheckpoint(func(_ uint64, ntables int, r *wal.CheckpointReader) error {
		for i := 0; i < ntables; i++ {
			if err := db.readTableSection(r, noteTS); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ankerdb: recovery: %w", err)
	}
	noteTS(ckptTS)

	var replayed, loads uint64
	visOps := map[visKey][]visOp{}
	var at resolved
	if err := db.wal.ReplayCommits(func(rec wal.LoadRecord) error {
		// Chunks beyond the durable schema prefix are skipped like
		// commit records.
		if c, ok := db.resolveLoad(rec); ok {
			c.applyLoadChunk(rec)
			loads++
		}
		return nil
	}, func(rec wal.CommitRecord) error {
		noteTS(rec.TS)
		if rec.TS <= ckptTS {
			return nil // fully covered by the checkpoint
		}
		if ok, err := db.resolve(&rec, &at); !ok {
			return err
		}
		// Offline replay stores cells bare: no reader exists, chains
		// stay empty, and zones and indexes are rebuilt below.
		for i, w := range rec.Writes {
			if c := at.cols[i]; rec.TS > c.wts.GetU(w.Row) {
				c.wts.SetU(w.Row, rec.TS)
				c.data.Set(w.Row, c.redoValue(w))
			}
		}
		for _, op := range rec.Ops {
			k := visKey{table: op.Table, row: op.Row}
			visOps[k] = append(visOps[k], visOp{ts: rec.TS, del: op.Del})
		}
		replayed++
		return nil
	}); err != nil {
		return fmt.Errorf("ankerdb: recovery: %w", err)
	}

	db.applyVisOps(visOps)
	// Re-apply table DDL in log order over the fully replayed arrays.
	// The oracle seed must clear every DDL stamp too: otherwise a
	// commit issued after recovery could land at or below a truncate's
	// timestamp and be killed by the NEXT recovery's replay of it.
	for _, d := range ddl {
		noteTS(d.ts)
		switch d.op {
		case wal.TableDDLTruncate:
			db.truncateAt(d.t, d.ts)
		case wal.TableDDLDrop:
			db.dropAt(d.t, d.ts)
			db.freeDropped(d.t) // no reader exists yet, whatever the floor says
		}
	}
	// Row state, zones and indexes all rebuild from the recovered arrays
	// — the durable prefix, torn tails already cut — so post-recovery
	// probes match scans at every timestamp (index_db.go documents the
	// rebuild-vs-log trade).
	db.recoveredIndexes = db.rebuildDerived()
	db.oracle.Seed(maxTS)
	db.recoveredTxns = replayed
	db.recoveredLoads = loads
	return nil
}

// applyVisOps replays the buffered row ops of every (table, row) in
// commit-timestamp order: each insert resets the death stamp and
// births the row at its timestamp, each delete kills it — so the final
// (birth, death) pair reflects the newest durable incarnation
// regardless of the order segments were streamed in. Ops at or below
// the newest stamp the checkpoint already recovered for the row
// (visFloor) are skipped — the checkpointed pair reflects their effect
// (or a newer one) — so replaying a record any number of times (or one
// that survived truncation in a foreign shard series) never regresses
// recovered state. This is the one writer of birth stamps besides
// installRowOp: offline, it needs none of the live path's index,
// counter and visibility-log maintenance.
func (db *DB) applyVisOps(visOps map[visKey][]visOp) {
	for k, ops := range visOps {
		sort.Slice(ops, func(i, j int) bool { return ops[i].ts < ops[j].ts })
		t := db.tabList[k.table]
		birth, death := t.st.Birth(), t.st.Death()
		floor := t.visFloor(k.row)
		for _, op := range ops {
			if op.ts <= floor {
				continue
			}
			if op.del {
				death.SetU(k.row, op.ts)
			} else {
				death.SetU(k.row, 0)
				birth.SetU(k.row, op.ts)
			}
		}
	}
}
