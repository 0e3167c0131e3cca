package ankerdb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/telemetry"
)

// Txn is one transaction. OLTP transactions stage writes locally (Set),
// read their own writes (Get), insert and delete rows (Insert/Delete),
// and publish atomically at Commit after precision-locking validation;
// Abort is free. OLAP transactions are read-only and serve
// Scan/Filter/Aggregate from per-column virtual snapshots pinned at
// Begin.
//
// A Txn must not be used from multiple goroutines.
type Txn struct {
	db    *DB
	id    uint64
	class TxnClass
	state *mvcc.TxnState // OLTP
	gen   *generation    // OLAP
	done  bool

	// reserved are row slots handed out by Insert, returned to their
	// table's free list if the transaction aborts or fails validation
	// (their birth timestamps are still NeverTS, so they were never
	// visible to anyone).
	reserved []reservedRow

	// epochs records each staged-against table's DDL epoch at first
	// touch; the commit path aborts the transaction if any moved
	// (ddl.go). A transaction touches few tables, so a slice with
	// linear search beats a map.
	epochs []tableEpoch
}

type reservedRow struct {
	tab   *table
	row   int
	epoch uint64 // the table's DDL epoch when the slot was reserved
}

// releaseReserved returns every reserved slot after an abort or a
// failed commit. Slots of a table dropped or truncated meanwhile are
// NOT returned: the DDL reset that table's allocator, and releasing a
// pre-DDL slot into the fresh free list would hand it out twice.
func (t *Txn) releaseReserved() {
	byTab := map[*table][]int{}
	for _, r := range t.reserved {
		if r.tab.ddlEpoch.Load() != r.epoch {
			continue
		}
		byTab[r.tab] = append(byTab[r.tab], r.row)
	}
	for tab, rows := range byTab {
		tab.release(rows)
	}
	t.reserved = nil
}

// noteEpoch records tab's DDL epoch the first time the transaction
// stages against it. It must run BEFORE the visibility check of the
// staging operation: a drop or truncate between the two is then caught
// either by the check (it sees post-DDL state) or by the commit-path
// epoch guard (the recorded epoch is stale).
func (t *Txn) noteEpoch(tab *table) {
	for _, e := range t.epochs {
		if e.tab == tab {
			return
		}
	}
	t.epochs = append(t.epochs, tableEpoch{tab: tab, epoch: tab.ddlEpoch.Load()})
}

// Class returns the transaction's class.
func (t *Txn) Class() TxnClass { return t.class }

// SnapshotTS returns the commit timestamp the transaction reads at: the
// begin timestamp for OLTP, the pinned snapshot generation's timestamp
// for OLAP.
func (t *Txn) SnapshotTS() uint64 {
	if t.class == OLAP {
		return t.gen.ts
	}
	return t.state.Begin
}

// Staleness returns how many commits the transaction's read timestamp
// currently lags behind the newest completed commit — the bounded
// staleness OLAP transactions trade for snapshot scans.
func (t *Txn) Staleness() uint64 {
	return t.db.oracle.Completed() - t.SnapshotTS()
}

// Get returns the value of (table, column, row) as of the transaction's
// read timestamp. OLTP transactions see their own staged writes (and
// staged inserts) and record the read for commit-time validation; OLAP
// transactions read the pinned snapshot. Rows outside the visible row
// set at the read timestamp — never inserted, born later, or deleted —
// fail with ErrRowNotVisible.
func (t *Txn) Get(tab, col string, row int) (int64, error) {
	c, err := t.readable(tab, col, row)
	if err != nil {
		return 0, err
	}
	if t.class == OLAP {
		visible, err := t.olapRowVisible(c.tab, row)
		if err != nil {
			return 0, err
		}
		if !visible {
			return 0, &notVisibleError{tab: tab, col: col, row: row, ts: t.gen.ts}
		}
		cs, err := t.gen.colSnap(c)
		if err != nil {
			return 0, err
		}
		if row >= cs.rows() {
			return 0, &notVisibleError{tab: tab, col: col, row: row, ts: t.gen.ts}
		}
		return t.gen.value(c, cs, row), nil
	}
	if !t.oltpRowVisible(c.tab, row) {
		t.noteAbsence(c.tab, row)
		return 0, &notVisibleError{tab: tab, col: col, row: row, ts: t.state.Begin}
	}
	if v, ok := t.state.StagedValue(c.id, row); ok {
		return v, nil
	}
	t.state.NotePointRead(c.id, row)
	return c.valueAt(row, t.state.Begin), nil
}

// noteAbsence records that the transaction observed row of tab as NOT
// visible (an ErrRowNotVisible result is a read too): a point read on
// the table's visibility pseudo column, which every commit that births
// or kills the row marks in its validation record. Without it, a
// transaction acting on the absence would skip validation entirely and
// write-skew with a concurrent insert into the same slot.
func (t *Txn) noteAbsence(tab *table, row int) {
	t.state.NotePointRead(mvcc.VisColumnID(tab.idx), row)
}

// oltpRowVisible reports whether row is part of the transaction's
// visible row set: staged inserts are visible to their own transaction,
// staged deletes invisible, everything else resolves against the live
// visibility arrays at the begin timestamp (with the unmutated-table
// fast path skipping the array reads entirely).
func (t *Txn) oltpRowVisible(tab *table, row int) bool {
	if t.state.HasRowOpsFor(tab.idx) {
		if t.state.RowDeleted(tab.idx, row) {
			return false
		}
		if t.state.RowInserted(tab.idx, row) {
			return true
		}
	}
	if !tab.visMutated.Load() {
		return row < tab.st.InitialRows()
	}
	return tab.liveVisible(row, t.state.Begin)
}

// olapRowVisible resolves row against the generation's visibility
// snapshot (capturing it on first touch for mutated tables).
func (t *Txn) olapRowVisible(tab *table, row int) (bool, error) {
	if !tab.visMutated.Load() {
		return row < tab.st.InitialRows(), nil
	}
	vs, err := t.gen.visSnap(tab)
	if err != nil {
		return false, err
	}
	return vs.visibleAt(row, t.gen.ts), nil
}

// GetString is Get for VARCHAR columns, decoding through the table
// dictionary.
func (t *Txn) GetString(tab, col string, row int) (string, error) {
	c, err := t.readable(tab, col, row)
	if err != nil {
		return "", err
	}
	if c.def.Type != Varchar {
		return "", fmt.Errorf("%w: %s is %s, want VARCHAR", ErrType, col, c.def.Type)
	}
	v, err := t.Get(tab, col, row)
	if err != nil {
		return "", err
	}
	return c.dict.Decode(v), nil
}

// Set stages a write of (table, column, row); nothing is visible to
// other transactions until Commit. The row must be visible at the
// transaction's read timestamp (or staged by its own Insert): updating
// a deleted or unborn row fails with ErrRowNotVisible.
func (t *Txn) Set(tab, col string, row int, v int64) error {
	c, err := t.writable(tab, col, row)
	if err != nil {
		return err
	}
	t.state.StageWrite(c.id, row, v)
	return nil
}

// SetString is Set for VARCHAR columns, encoding through the table
// dictionary. The dictionary is append-only and shared, so codes
// assigned by transactions that later abort simply remain unused.
func (t *Txn) SetString(tab, col string, row int, s string) error {
	c, err := t.writable(tab, col, row)
	if err != nil {
		return err
	}
	if c.def.Type != Varchar {
		return fmt.Errorf("%w: %s is %s, want VARCHAR", ErrType, col, c.def.Type)
	}
	t.state.StageWrite(c.id, row, c.dict.Encode(s))
	return nil
}

// Insert stages a new row of tab whose columns take the given values
// (int64/int for numeric columns, string for VARCHAR; omitted columns
// default to zero or the empty string) and returns the row index the
// row will occupy. The slot is reserved exclusively — concurrent
// inserts never collide — but the row is born only at Commit, stamped
// with the commit timestamp: transactions (and snapshots) reading
// below it never see the row, while the inserting transaction reads
// its own staged values. The slot is a reclaimed free-list row when
// one is available, otherwise the table grows by a mapped chunk.
// Aborting (or failing validation) returns the slot to the free list.
func (t *Txn) Insert(tab string, vals map[string]any) (int, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if t.class == OLAP {
		return 0, ErrReadOnly
	}
	tb, err := t.db.lookupTable(tab)
	if err != nil {
		return 0, err
	}
	t.noteEpoch(tb)
	schema := tb.st.Schema()
	staged := make([]int64, len(tb.cols))
	set := make([]bool, len(tb.cols))
	for name, v := range vals {
		i := schema.ColumnIndex(name)
		if i < 0 {
			return 0, fmt.Errorf("%w: %q.%q", ErrNoSuchColumn, tab, name)
		}
		c := tb.cols[i]
		switch val := v.(type) {
		case int64:
			if c.def.Type == Varchar {
				return 0, fmt.Errorf("%w: %s is VARCHAR, want string value", ErrType, name)
			}
			staged[i] = val
		case int:
			if c.def.Type == Varchar {
				return 0, fmt.Errorf("%w: %s is VARCHAR, want string value", ErrType, name)
			}
			staged[i] = int64(val)
		case string:
			if c.def.Type != Varchar {
				return 0, fmt.Errorf("%w: %s is %s, want numeric value", ErrType, name, c.def.Type)
			}
			staged[i] = c.dict.Encode(val)
		default:
			return 0, fmt.Errorf("%w: unsupported value type %T for %s.%s", ErrType, v, tab, name)
		}
		set[i] = true
	}
	for i, c := range tb.cols {
		if !set[i] && c.def.Type == Varchar {
			staged[i] = c.dict.Encode("") // codes must decode; 0 may not exist yet
		}
	}
	t.db.assistGrowth(tb)
	row, err := tb.reserve()
	if err != nil {
		return 0, err
	}
	t.reserved = append(t.reserved, reservedRow{tab: tb, row: row, epoch: tb.ddlEpoch.Load()})
	for i, c := range tb.cols {
		t.state.StageWrite(c.id, row, staged[i])
	}
	t.state.StageInsert(tb.idx, row)
	return row, nil
}

// Delete stages the deletion of row of tab. The row must be visible at
// the transaction's read timestamp; at Commit its death timestamp is
// stamped with the commit timestamp, so concurrent and later snapshots
// below it keep seeing the row. The deletion reads the whole row —
// every column plus its liveness — so a concurrent commit that writes,
// re-inserts or deletes the row aborts this transaction at validation.
// Dead rows are reclaimed for reuse by the background reclaimer once
// no reader can see them. A row inserted by this same transaction cannot be deleted by
// it — abort the transaction instead.
func (t *Txn) Delete(tab string, row int) error {
	if t.done {
		return ErrTxnDone
	}
	if t.class == OLAP {
		return ErrReadOnly
	}
	tb, err := t.db.lookupTable(tab)
	if err != nil {
		return err
	}
	t.noteEpoch(tb)
	if row < 0 || row >= tb.st.Capacity() {
		if row >= 0 {
			t.noteAbsence(tb, row) // see readable: above-capacity is an absence read
		}
		return errRowRange(tab, "", row, tb.st.Capacity())
	}
	if t.state.RowInserted(tb.idx, row) {
		return fmt.Errorf("%w: row %d of %q was inserted by this transaction", ErrRowNotVisible, row, tab)
	}
	if !t.oltpRowVisible(tb, row) {
		t.noteAbsence(tb, row)
		return &notVisibleError{tab: tab, row: row, ts: t.state.Begin}
	}
	for _, c := range tb.cols {
		t.state.NotePointRead(c.id, row)
	}
	t.state.StageDelete(tb.idx, row)
	return nil
}

// Scan returns the values of every row visible at the transaction's
// read timestamp, in row order. For a table that never saw an Insert
// or Delete this is the whole column, indexed by row; once rows are
// born and die transactionally, deleted and unborn rows are omitted.
func (t *Txn) Scan(tab, col string) ([]int64, error) {
	c, err := t.readable(tab, col, 0)
	if err != nil {
		return nil, err
	}
	if t.class == OLAP {
		res, err := t.Query(tab).Select(col).Run()
		if err != nil {
			return nil, err
		}
		return res.Ints(0), nil
	}
	out := make([]int64, 0, c.tab.st.InitialRows())
	err = t.scanColumn(c, func(_ int, v int64) { out = append(out, v) })
	return out, err
}

// Lookup returns the rows whose col equals v as of the transaction's
// read timestamp, ascending. With a secondary index on col (hash or
// ordered) the lookup probes it instead of scanning; either way the
// result is exactly what a visibility-filtered scan would return. OLTP
// lookups see their own staged writes and record the equality as a
// precision-locking predicate, so a concurrent commit writing v into
// col aborts them at Commit.
func (t *Txn) Lookup(tab, col string, v int64) ([]int, error) {
	return t.Filter(tab, col, v, v)
}

// Filter returns the rows whose value lies in [lo, hi] as of the
// transaction's read timestamp, ascending. An ordered secondary index
// on col (or, for an equality range, a hash index) serves the filter
// without a scan — see Lookup. OLTP transactions record the range as a
// precision-locking predicate, so a concurrent commit into the range
// aborts them at Commit.
func (t *Txn) Filter(tab, col string, lo, hi int64) ([]int, error) {
	c, err := t.readable(tab, col, 0)
	if err != nil {
		return nil, err
	}
	if t.class == OLAP {
		res, err := t.Query(tab).Where(Between(col, lo, hi)).Select(RowID).Run()
		if err != nil {
			return nil, err
		}
		var rows []int
		for _, r := range res.Ints(0) {
			rows = append(rows, int(r))
		}
		return rows, nil
	}
	t.state.NotePredicate(mvcc.Predicate{Col: c.id, Lo: lo, Hi: hi})
	if rows, ok := t.indexFilter(c, lo, hi); ok {
		return rows, nil
	}
	var rows []int
	err = t.scanColumn(c, func(row int, v int64) {
		if v >= lo && v <= hi {
			rows = append(rows, row)
		}
	})
	return rows, err
}

// indexFilter answers an OLTP range filter from col's secondary index
// when one can serve it. The probe runs at the begin timestamp —
// entries carry the same commit timestamps as the visibility arrays,
// so it returns exactly the committed rows a scan would surface — and
// the transaction's own staged state is overlaid on top: staged
// deletes drop rows, staged writes move rows out of or into the range,
// staged inserts contribute theirs. ok is false (fall back to the
// scan) without an index, when a hash index is asked a true range, or
// when the begin timestamp predates the index's build floor.
func (t *Txn) indexFilter(c *column, lo, hi int64) ([]int, bool) {
	ix := c.idx.Load()
	if ix == nil || !ix.Valid(t.state.Begin) {
		return nil, false
	}
	probed, ok := ix.ProbeRange(lo, hi, t.state.Begin)
	if !ok {
		return nil, false
	}
	t.db.st.indexProbes.Add(1)
	if !t.state.HasWrites() && !t.state.HasRowOpsFor(c.tab.idx) {
		return probed, true
	}
	rows := probed[:0]
	for _, row := range probed {
		if t.state.RowDeleted(c.tab.idx, row) {
			continue
		}
		if v, staged := t.state.StagedValue(c.id, row); staged && (v < lo || v > hi) {
			continue
		}
		rows = append(rows, row)
	}
	// Staged writes the committed index can't know about: an in-range
	// value Set over an out-of-range committed one, or a staged
	// insert's column value. A non-insert staged write targets a row
	// that was committed-visible at begin (writable checks), so its
	// committed value tells whether the probe already returned it.
	added := false
	t.state.EachWrite(func(col mvcc.ColumnID, row int, val int64) {
		if col != c.id || val < lo || val > hi {
			return
		}
		if !t.oltpRowVisible(c.tab, row) {
			return
		}
		if !t.state.RowInserted(c.tab.idx, row) {
			if cv := c.valueAt(row, t.state.Begin); cv >= lo && cv <= hi {
				return // the probe covered it
			}
		}
		rows = append(rows, row)
		added = true
	})
	if added {
		sort.Ints(rows)
	}
	return rows, true
}

// Agg selects the aggregate Aggregate computes.
type Agg uint8

// Aggregates.
const (
	Sum Agg = iota
	Min
	Max
	Count
)

// Aggregate folds the rows visible at the transaction's read timestamp.
// Count returns the snapshot-consistent visible row count — every row
// born at or before the read timestamp and not yet dead at it (plus
// the transaction's own staged inserts, minus its staged deletes).
func (t *Txn) Aggregate(tab, col string, agg Agg) (int64, error) {
	c, err := t.readable(tab, col, 0)
	if err != nil {
		return 0, err
	}
	if agg == Count {
		return t.countVisible(c)
	}
	if t.class == OLAP {
		var spec AggSpec
		switch agg {
		case Min:
			spec = MinOf(col)
		case Max:
			spec = MaxOf(col)
		default:
			spec = SumOf(col)
		}
		res, err := t.Query(tab).Aggregate(spec).Run()
		if err != nil {
			return 0, err
		}
		return res.At(0, 0), nil
	}
	var acc int64
	switch agg {
	case Min:
		acc = math.MaxInt64
	case Max:
		acc = math.MinInt64
	}
	err = t.scanColumn(c, func(_ int, v int64) {
		switch agg {
		case Sum:
			acc += v
		case Min:
			if v < acc {
				acc = v
			}
		case Max:
			if v > acc {
				acc = v
			}
		}
	})
	return acc, err
}

// countVisible counts the visible row set without touching column data
// or the visibility arrays: the table's visibility log answers the
// snapshot-consistent count at any reachable timestamp in O(log n)
// (see vislog.go). OLTP transactions add their own staged inserts and
// subtract staged deletes, and record the count as a full-range
// predicate — a concurrent insert or delete changes the count and must
// invalidate them.
func (t *Txn) countVisible(c *column) (int64, error) {
	tab := c.tab
	if t.class == OLAP {
		return tab.visCountAt(t.gen.ts), nil
	}
	t.state.NotePredicate(mvcc.Predicate{Col: c.id, Lo: math.MinInt64, Hi: math.MaxInt64})
	n := tab.visCountAt(t.state.Begin)
	if t.state.HasRowOpsFor(tab.idx) {
		t.state.EachRowOp(func(op mvcc.RowOp) {
			if op.Table != tab.idx {
				return
			}
			if op.Del {
				n--
			} else {
				n++
			}
		})
	}
	return n, nil
}

// scanColumn drives fn over every visible row at an OLTP transaction's
// begin timestamp, in row order, reading the live column with the
// lock-free read protocol and recording the scan as a full-range
// predicate for validation. Tables that never saw an Insert or Delete
// skip the per-row visibility checks entirely and scan exactly their
// initial rows — the pre-growable fast path. OLAP scans don't come
// through here: they run in the streaming query engine against the
// pinned generation (see query.go and the snapTable adapter).
func (t *Txn) scanColumn(c *column, fn func(row int, v int64)) error {
	tab := c.tab
	t.state.NotePredicate(mvcc.Predicate{Col: c.id, Lo: math.MinInt64, Hi: math.MaxInt64})
	begin := t.state.Begin
	fast := !tab.visMutated.Load() && !t.state.HasRowOpsFor(tab.idx)
	limit := tab.st.InitialRows()
	if !fast {
		limit = tab.st.Capacity()
	}
	for row := 0; row < limit; row++ {
		if !fast && !t.oltpRowVisible(tab, row) {
			continue
		}
		if v, ok := t.state.StagedValue(c.id, row); ok {
			fn(row, v)
			continue
		}
		fn(row, c.valueAt(row, begin))
	}
	return nil
}

// Commit finishes the transaction. For OLTP it runs the serialised
// commit phase (validation + materialisation) and returns ErrConflict —
// having aborted — when a concurrent commit invalidated the read set.
// For OLAP it releases the snapshot pin.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if t.class == OLAP {
		t.db.snaps.release(t.gen)
		t.db.olapGate.RUnlock()
		t.db.tel.rec.Record(telemetry.EvTxnCommit, int64(t.id), 0, int64(t.gen.ts))
		return nil
	}
	defer t.db.activ.Unregister(t.id)
	if !t.state.HasWrites() && !t.state.HasRowOps() {
		// Read-only transactions read one consistent snapshot and need
		// no validation to be serializable.
		t.db.st.emptyCommits.Add(1)
		t.db.tel.rec.Record(telemetry.EvTxnCommit, int64(t.id), 1, int64(t.state.Begin))
		return nil
	}
	// The commit path itself records the flight-recorder commit/abort
	// event (RecordAt, reusing its phase clock marks), so no event is
	// emitted here.
	if err := t.db.commit(t.state, t.epochs); err != nil {
		if errors.Is(err, ErrConflict) || errors.Is(err, ErrNoSuchTable) {
			// Failed validation: install never ran, so reserved insert
			// slots were never born and return to the free list. (A WAL
			// failure, by contrast, reports an error with the writes
			// already applied in memory — those slots are consumed.)
			t.releaseReserved()
		}
		t.db.st.aborts.Add(1)
		return err
	}
	t.reserved = nil
	return nil
}

// Abort discards the transaction. Staged writes were never published,
// so aborting is free (the point of staging writes locally); row slots
// reserved by Insert return to their table's free list unborn.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if t.class == OLAP {
		t.db.snaps.release(t.gen)
		t.db.olapGate.RUnlock()
		t.db.tel.rec.Record(telemetry.EvTxnAbort, int64(t.id), telemetry.AbortExplicit, int64(t.gen.ts))
		return nil
	}
	t.releaseReserved()
	t.db.activ.Unregister(t.id)
	t.db.st.aborts.Add(1)
	t.db.tel.rec.Record(telemetry.EvTxnAbort, int64(t.id), telemetry.AbortExplicit, int64(t.state.Begin))
	return nil
}

func (t *Txn) readable(tab, col string, row int) (*column, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	c, err := t.db.lookup(tab, col)
	if err != nil {
		return nil, err
	}
	if cap := c.tab.st.Capacity(); row < 0 || row >= cap {
		if t.class == OLTP && row >= 0 {
			// A row above the current capacity is another absence
			// observation: a concurrent Insert may grow the table into
			// that very slot, and a transaction acting on the ErrRowRange
			// it saw must conflict with that commit (see noteAbsence).
			t.noteAbsence(c.tab, row)
		}
		return nil, errRowRange(tab, col, row, cap)
	}
	return c, nil
}

func (t *Txn) writable(tab, col string, row int) (*column, error) {
	if t.class == OLAP {
		return nil, ErrReadOnly
	}
	c, err := t.readable(tab, col, row)
	if err != nil {
		return nil, err
	}
	t.noteEpoch(c.tab)
	if !t.oltpRowVisible(c.tab, row) {
		t.noteAbsence(c.tab, row)
		return nil, &notVisibleError{tab: tab, col: col, row: row, ts: t.state.Begin}
	}
	return c, nil
}

// valueAt reads the live column at timestamp ts with the lock-free
// protocol: load the row's write timestamp, the value, and the write
// timestamp again. A stable old-enough timestamp proves the value
// belongs to it (commit materialisation stores the timestamp strictly
// before the data); otherwise the displaced version is on the chain.
func (c *column) valueAt(row int, ts uint64) int64 {
	for {
		w1 := c.wts.GetU(row)
		if w1 > ts {
			if v, ok := c.chain.VisibleAt(row, ts); ok {
				return v
			}
			// Chain pruned to exactly ts's visibility: the in-place
			// value is the visible one.
			return c.data.Get(row)
		}
		v := c.data.Get(row)
		if c.wts.GetU(row) == w1 {
			return v
		}
	}
}
