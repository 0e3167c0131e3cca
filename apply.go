package ankerdb

import (
	"io"

	"ankerdb/internal/index"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// The apply rules: how a committed write, a row birth or death, a
// bulk-load chunk, a table section and a drop/truncate marker change
// engine state. Each exists once, here, for every source of such
// changes — the commit pipeline (commit.go), crash recovery
// (durability.go), the replica's stream and bootstrap (replication.go),
// table DDL (ddl.go). Recovery keeps to itself only what an offline,
// order-insensitive source needs: row ops buffered per row and applied
// in timestamp order (applyVisOps), cells stored without chain or index
// maintenance, zones and indexes rebuilt once at the end.

// installCell stores val into row at commit timestamp ts and returns
// the value it displaced. The caller holds the column's shard commit
// lock. The write timestamp is stored strictly before the data word,
// the ordering the lock-free read protocol (column.valueAt) and
// snapshot repair depend on.
//
// born marks a row the same commit record births: the displaced word
// is garbage from the slot's previous (reclaimed, below the GC floor)
// or never-born incarnation, which no reader can reach — every reader
// old enough to want it already sees the row as dead or unborn through
// the visibility arrays — so it skips the version chain, and the index
// gains one entry. Otherwise the displaced version is pushed first, and
// a value change death-stamps the old index association and births the
// new one at ts, mirroring the chain push; a same-value overwrite
// leaves the live entry alone.
func (c *column) installCell(row int, val int64, ts uint64, born bool) (old int64) {
	old = val
	if !born {
		old = c.data.Get(row)
		c.chain.Push(row, old, c.wts.GetU(row))
		c.noteVersioned(row)
	}
	c.wts.SetU(row, ts)
	c.data.Set(row, val)
	c.widen(row, val)
	if ix := c.idx.Load(); ix != nil && (born || old != val) {
		if !born {
			ix.Kill(old, row, ts)
			c.tab.pending.Add(1)
		}
		ix.Add(val, row, ts)
	}
	return old
}

// tableDeltas accumulates a commit's insert-minus-delete count per
// table for the visibility logs. A transaction touches very few
// tables, so a slice with linear search beats a map.
type tableDeltas []tableDelta

type tableDelta struct {
	t *table
	d int64
}

func (ds *tableDeltas) add(t *table, d int64) {
	for i := range *ds {
		if (*ds)[i].t == t {
			(*ds)[i].d += d
			return
		}
	}
	*ds = append(*ds, tableDelta{t, d})
}

// flush appends one visibility-log entry per mutated table, under that
// table's visibility shard lock (held by the caller) and before ts
// completes — so any reader that can see ts sees it. An insert and a
// delete in one commit net out.
func (ds tableDeltas) flush(ts uint64) {
	for _, e := range ds {
		if e.d != 0 {
			e.t.visLogAppend(ts, e.d)
		}
	}
}

// installRowOp births (del false) or kills row of t at commit timestamp
// ts. The caller holds t's visibility shard lock and has installed the
// record's cell writes already: row ops run after all writes, death
// reset before birth, birth last, so a concurrent lock-free reader that
// observes the birth timestamp observes the fully materialised row, and
// one that doesn't skips the row entirely. A death also death-stamps
// the row's live entry in every indexed column, at the same timestamp
// the visibility array records.
func (db *DB) installRowOp(t *table, row int, del bool, ts uint64, deltas *tableDeltas) {
	t.visMutated.Store(true)
	if del {
		for _, c := range t.cols {
			if ix := c.idx.Load(); ix != nil {
				ix.Kill(c.data.Get(row), row, ts)
			}
		}
		t.st.Death().SetU(row, ts)
		t.pending.Add(1)
		db.st.rowDeletes.Add(1)
		deltas.add(t, -1)
	} else {
		t.st.Death().SetU(row, 0)
		t.st.Birth().SetU(row, ts)
		db.st.rowInserts.Add(1)
		deltas.add(t, 1)
	}
}

// visFloor is the newest stamp row's visibility pair already carries:
// a logged row op at or below it is a duplicate (or older than what a
// checkpoint or snapshot recovered) and must not apply — the row-op
// form of the newer-wins rule cells get from their write timestamp.
func (t *table) visFloor(row int) uint64 {
	floor := t.st.Death().GetU(row)
	if b := t.st.Birth().GetU(row); b != storage.NeverTS && b > floor {
		floor = b
	}
	return floor
}

// maxRecoveredRow bounds how far a logged record may grow a table: a
// CRC-valid record never legitimately references rows this far above
// anything the engine can allocate, so larger indexes are treated like
// unknown addresses (the record is skipped) instead of ballooning
// memory. (1<<30, not 1<<31: the bound must stay an int on 32-bit
// platforms.)
const maxRecoveredRow = 1 << 30

// growRecovered grows t (and its per-chunk scan metadata) to cover
// row, chunk-wise. It takes only the allocator mutex and the storage
// layer's own locks, so it is safe with or without shard locks held.
func (db *DB) growRecovered(t *table, row int) error {
	if row < t.st.Capacity() {
		return nil
	}
	t.amu.Lock()
	defer t.amu.Unlock()
	if err := t.st.EnsureCapacity(row + 1); err != nil {
		return err
	}
	t.growMetas()
	return nil
}

// resolved is a commit record's addresses bound to tables: cols[i] is
// the column of rec.Writes[i], tabs[i] the table of rec.Ops[i]. The
// single-threaded appliers reuse one across records.
type resolved struct {
	cols []*column
	tabs []*table
}

// resolve binds every address of rec before anything applies, and
// grows the addressed tables chunk-wise to cover its rows (rows above
// the current capacity are not errors — inserts put them there). ok is
// false for a record that references state beyond the applied schema
// prefix (possible on disk only under SyncNone, when OS writeback
// persisted a segment page but not the schema log): it is skipped
// whole — like a torn tail, and without breaking per-transaction
// atomicity. It must not fail the applier: that would make a directory
// permanently unopenable over a policy that only promises to lose
// recent commits.
func (db *DB) resolve(rec *wal.CommitRecord, into *resolved) (ok bool, err error) {
	into.cols, into.tabs = into.cols[:0], into.tabs[:0]
	db.mu.RLock()
	for _, w := range rec.Writes {
		if w.Table < 0 || w.Table >= len(db.tabList) {
			db.mu.RUnlock()
			return false, nil
		}
		t := db.tabList[w.Table]
		if w.Col < 0 || w.Col >= len(t.cols) || w.Row < 0 || w.Row >= maxRecoveredRow {
			db.mu.RUnlock()
			return false, nil
		}
		into.cols = append(into.cols, t.cols[w.Col])
	}
	for _, op := range rec.Ops {
		if op.Table < 0 || op.Table >= len(db.tabList) || op.Row < 0 || op.Row >= maxRecoveredRow {
			db.mu.RUnlock()
			return false, nil
		}
		into.tabs = append(into.tabs, db.tabList[op.Table])
	}
	db.mu.RUnlock()
	for i, w := range rec.Writes {
		if err := db.growRecovered(into.cols[i].tab, w.Row); err != nil {
			return false, err
		}
	}
	for i, op := range rec.Ops {
		if err := db.growRecovered(into.tabs[i], op.Row); err != nil {
			return false, err
		}
	}
	return true, nil
}

// redoValue is the word a redo write stores: VARCHAR writes carry the
// decoded string and re-encode through this side's dictionary.
func (c *column) redoValue(w wal.RedoWrite) int64 {
	if w.HasStr {
		return c.dict.Encode(w.Str)
	}
	return w.Val
}

// resolveLoad binds a bulk-load chunk to its column and validates its
// window and value type; ok is false when the applied schema prefix
// does not cover it (skipped like an unresolvable commit record).
func (db *DB) resolveLoad(rec wal.LoadRecord) (*column, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if rec.Table < 0 || rec.Table >= len(db.tabList) {
		return nil, false
	}
	t := db.tabList[rec.Table]
	if rec.Col < 0 || rec.Col >= len(t.cols) {
		return nil, false
	}
	c := t.cols[rec.Col]
	n := len(rec.Vals)
	if rec.HasStrs {
		n = len(rec.Strs)
	}
	if rec.Start < 0 || n > c.data.Rows()-rec.Start || rec.HasStrs != (c.def.Type == Varchar) {
		return nil, false
	}
	return c, true
}

// applyLoadChunk stores a bulk-load chunk resolveLoad accepted. Chunks
// are the state at time zero: a value lands only on rows no commit has
// ever stamped, so replay is idempotent and insensitive to ordering
// against commit records — any committed write (timestamp > 0) wins
// over a load. Zones widen, never shrink (live readers). The caller
// excludes concurrent installs into c.
func (c *column) applyLoadChunk(rec wal.LoadRecord) {
	set := func(row int, v int64) {
		c.data.Set(row, v)
		c.widen(row, v)
	}
	if rec.HasStrs {
		for i, s := range rec.Strs {
			if row := rec.Start + i; c.wts.GetU(row) == 0 {
				set(row, c.dict.Encode(s))
			}
		}
		return
	}
	for i, v := range rec.Vals {
		if row := rec.Start + i; c.wts.GetU(row) == 0 {
			set(row, v)
		}
	}
}

// writeTableSection streams t's table section (layout: the comment in
// internal/wal/checkpoint.go) as generation g sees it — the body of a
// checkpoint file and of a replica bootstrap alike. Every column and
// the visibility arrays are captured before anything is written: the
// table can grow chunk-wise while the section streams, so its row
// count is the minimum captured capacity — rows born above it carry
// commit timestamps past the generation's and replay from the records
// the consumer still receives (retained WAL, live stream).
func writeTableSection(w *wal.CheckpointWriter, g *generation, t *table) error {
	snaps := make([]*colSnap, len(t.cols))
	for i, c := range t.cols {
		cs, err := g.colSnap(c)
		if err != nil {
			return err
		}
		snaps[i] = cs
	}
	vs, err := g.visSnap(t)
	if err != nil {
		return err
	}
	rows := vs.rows()
	for _, cs := range snaps {
		rows = min(rows, cs.rows())
	}
	if err := w.BeginTable(t.idx, t.st.Schema().Table, rows, len(t.cols)); err != nil {
		return err
	}
	for _, cs := range append(snaps, vs) { // birth rides as data, death as wts
		if err := storage.WriteWords(w, rows, cs.data.GetU); err != nil {
			return err
		}
		if err := storage.WriteWords(w, rows, cs.wts.GetU); err != nil {
			return err
		}
	}
	// The dictionary is read only now, after the last capture: being
	// append-only it is a superset of every code the captured words can
	// hold, even with VARCHAR commits racing the writer.
	return w.FinishTable(t.st.Dict().Strings())
}

// readTableSection reads the next table section of r into the table it
// addresses, in O(window) memory: words arrive as fixed-size windows
// stored in place through page-wise bulk writes, and the table grows
// chunk-wise as they arrive, so a section can only claim the capacity
// its bytes pay for. Sections address tables by schema-log slot, not
// name: after a drop and same-name re-creation both incarnations exist,
// and a pre-drop section must load into the dropped one's slot (the
// drop marker then clears it), never the new table's. Overwriting in
// place is a fast-forward — the section is its writer's state at a
// timestamp at or above anything this side holds — so the caller
// excludes every reader and installer of the table (single-threaded
// recovery; the OLAP gate plus every shard lock on a replica). noteTS
// sees the newest loaded commit stamp (write, birth, death) of every
// window, for the oracle seed. A section that contradicts the schema
// or ends early is an ErrCorruptCheckpoint.
func (db *DB) readTableSection(r *wal.CheckpointReader, noteTS func(uint64)) error {
	slot, name, rows, cols, err := r.TableHeader()
	if err != nil {
		return err
	}
	db.mu.RLock()
	nTabs := len(db.tabList)
	var t *table
	if slot >= 0 && slot < nTabs {
		t = db.tabList[slot]
	}
	db.mu.RUnlock()
	switch {
	case t == nil:
		return r.Corrupt("table %q claims slot %d of %d", name, slot, nTabs)
	case t.st.Schema().Table != name:
		return r.Corrupt("table %q at slot %d, schema log says %q", name, slot, t.st.Schema().Table)
	case len(t.cols) != cols:
		return r.Corrupt("table %q has %d columns, schema log says %d", name, cols, len(t.cols))
	case rows < 0 || rows > maxRecoveredRow:
		return r.Corrupt("table %q claims %d rows", name, rows)
	}
	grow := func(row int) error { return db.growRecovered(t, row) }
	for _, c := range t.cols {
		if err := fillWords(r, rows, grow, nil, c.data.FillWindow); err != nil {
			return err
		}
		if err := fillWords(r, rows, grow, noteTS, c.wts.FillWindow); err != nil {
			return err
		}
	}
	if err := fillWords(r, rows, grow, noteTS, t.st.Birth().FillWindow); err != nil {
		return err
	}
	if err := fillWords(r, rows, grow, noteTS, t.st.Death().FillWindow); err != nil {
		return err
	}
	dict, err := r.TableDict()
	if err != nil {
		return err
	}
	t.st.Dict().Load(dict)
	return nil
}

// fillWords streams one array of a table section — rows words of r —
// through store, window by window: per window one grow to its last
// row, one bulk store, and for stamp arrays (noteTS non-nil; data words
// are values, not stamps) one noteTS of the window's newest stamp.
func fillWords(r io.Reader, rows int, grow func(row int) error, noteTS func(uint64), store func(start int, words []uint64)) error {
	return storage.ReadWordsRegion(r, rows, func(start int, words []uint64) error {
		if err := grow(start + len(words) - 1); err != nil {
			return err
		}
		if noteTS != nil {
			var newest uint64
			for _, v := range words {
				if v != storage.NeverTS { // unborn rows carry no stamp
					newest = max(newest, v)
				}
			}
			noteTS(newest)
		}
		store(start, words)
		return nil
	})
}

// liveTables returns the tables not dropped, in slot order.
func (db *DB) liveTables() []*table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tabs := make([]*table, 0, len(db.tabList))
	for _, t := range db.tabList {
		if !t.dropped.Load() {
			tabs = append(tabs, t)
		}
	}
	return tabs
}

// rebuildAllocator recomputes t's row allocator from its visibility
// arrays — the one scan recovery, a finished bootstrap and Promote all
// derive row state from: the high-water mark covers every slot ever
// used, and slots whose reclaimed state a checkpoint persisted (birth
// NeverTS with a death stamp) return to the free list. It reports the
// rows alive at the newest timestamp and whether any row was ever
// transactionally born or killed. A truncated table's initial rows are
// unborn like any slot above the mark, so its mark restarts at zero —
// exactly where Truncate left the live allocator. The caller excludes
// concurrent row-op installs.
func (t *table) rebuildAllocator() (live int64, mutated bool) {
	birth, death := t.st.Birth(), t.st.Death()
	next := t.st.InitialRows()
	if mutated = t.truncated; mutated {
		next = 0
	}
	var free []int
	for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
		b, d := birth.GetU(row), death.GetU(row)
		switch {
		case b != storage.NeverTS:
			next = max(next, row+1)
			if d == 0 {
				live++
			}
			if b != 0 || d != 0 {
				mutated = true
			}
		case d != 0:
			// Reclaimed by a Vacuum and persisted: free for reuse.
			free = append(free, row)
			next = max(next, row+1)
			mutated = true
		}
	}
	t.amu.Lock()
	t.next, t.free = next, free
	t.amu.Unlock()
	return live, mutated || next > t.st.InitialRows()
}

// rebuildDerived gives every live table the state its freshly loaded
// arrays imply — how recovery and a replica bootstrap both end: the
// allocator, visMutated, a visibility log collapsed into its base (the
// arrays reflect every applied row op, and every reachable read
// timestamp sits above them), exact zone maps and index contents —
// neither loader maintains those. It returns the number of indexes
// rebuilt. The caller excludes every installer. Promote rebuilds only
// the allocator: its pinned readers still need the log.
func (db *DB) rebuildDerived() (indexes int) {
	for _, t := range db.liveTables() {
		live, mutated := t.rebuildAllocator()
		t.visMutated.Store(mutated)
		t.visLogReset(live - int64(t.st.InitialRows()))
		for _, c := range t.cols {
			c.recomputeZones(0)
			if old := c.idx.Load(); old != nil {
				c.idx.Store(buildColumnIndex(c, old.Kind(), 0))
				indexes++
			}
		}
	}
	return indexes
}

// dropAt tombstones t at timestamp ts: staged transactions against it
// abort through the epoch guard, and its storage is released at once
// when no running transaction or pinned generation can reach it (else
// by the reclaimer's first pass whose floor passes ts). Releasing the
// NAME is the caller's business — DropTable must log inside the same
// db.mu section, recovery releases names while it replays the schema
// log. The caller holds every shard commit lock, or is single-threaded
// recovery.
func (db *DB) dropAt(t *table, ts uint64) {
	t.ddlEpoch.Add(1)
	t.dropTS = ts
	t.dropped.Store(true)
	t.pending.Add(1)
	if db.gcFloor() > ts {
		db.freeDropped(t)
	}
	db.tel.rec.RecordNote(telemetry.EvTableDDL, int64(wal.TableDDLDrop), 0, int64(ts), t.st.Schema().Table)
}

// truncateAt kills every row of t born at or below ts and restarts its
// derived state empty: allocator at slot zero, a visible count of zero
// at every timestamp (the base cancels the initial rows; later inserts
// append deltas on top), and empty indexes with their build floor at ts
// — probes below it fall back to the scan path — and no pending row
// work. Live callers reach it with every commit at or below ts
// installed and none above, so that is every row; in recovery rows
// born above ts have already replayed and survive, and rebuildDerived
// supersedes the derived state set here.
// The caller holds every shard commit lock, or is recovery.
func (db *DB) truncateAt(t *table, ts uint64) {
	t.ddlEpoch.Add(1)
	t.visMutated.Store(true)
	t.truncated = true
	truncateRows(t, ts)
	t.amu.Lock()
	t.next, t.free = 0, nil
	t.amu.Unlock()
	t.pending.Store(0)
	t.visLogReset(-int64(t.st.InitialRows()))
	floor := db.gcFloor()
	for _, c := range t.cols {
		if ix := c.idx.Load(); ix != nil {
			c.idx.Store(index.New(ix.Kind(), ts))
		}
		c.recomputeZones(floor)
	}
	db.tel.rec.RecordNote(telemetry.EvTableDDL, int64(wal.TableDDLTruncate), 0, int64(ts), t.st.Schema().Table)
}
