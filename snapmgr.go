package ankerdb

import (
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/snapshot"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
)

// snapManager is the snapshot lifecycle manager: it hands OLAP
// transactions a reference-counted snapshot generation, rotates
// generations when the refresh policy fires (every n commits, signalled
// by the oracle's complete hook), and releases a generation's column
// snapshots once the last pin drops.
//
// Generations are fine-granular and lazy: rotating one is free, and a
// column is only snapshotted — through the configured strategy, data
// and write-timestamp arrays together — the first time an OLAP
// transaction in the generation touches it.
type snapManager struct {
	db           *DB
	refreshEvery uint64 // commits between refreshes, 0 = off

	commitsSince atomic.Uint64 // commits since the current generation's ts
	stale        atomic.Bool   // refresh policy fired, rotate on next acquire

	mu          sync.Mutex
	current     *generation
	closed      bool                     // DB closed: stop holding manager pins
	live        map[*generation]struct{} // generations with refs > 0
	generations uint64                   // total generations started

	created      atomic.Uint64 // column snapshots created
	released     atomic.Uint64 // column snapshots released
	createdNanos atomic.Uint64 // cumulative creation time
	lastNanos    atomic.Uint64 // latest creation time
}

// generation is one snapshot epoch: a timestamp (set when the first
// OLAP transaction pins it) plus the lazily created per-column
// snapshots all OLAP transactions in the epoch share. Visibility
// (birth/death) array snapshots are cached in the same map under the
// table's visibility pseudo-column ID.
type generation struct {
	mgr  *snapManager
	ts   uint64
	tsOK bool
	refs int // pins: one per running OLAP txn, plus one while current

	colMu sync.Mutex
	cols  map[mvcc.ColumnID]*colSnap
}

// colSnap is one column's snapshot inside a generation: resolved page
// caches over the snapshotted data and write-timestamp arrays, readable
// without the address-space lock. For a visibility pseudo-column the
// caches hold the birth (data) and death (wts) arrays instead.
type colSnap struct {
	snap snapshot.Snap
	data *storage.PageCache
	wts  *storage.PageCache
}

// rows returns the captured capacity: rows at or above it were born
// after the capture and are invisible at the generation.
func (cs *colSnap) rows() int { return cs.data.Rows() }

// visibleAt reports whether row is visible at ts in a captured
// visibility snapshot (data = birth, wts = death). Rows beyond the
// captured capacity were born after the capture and are invisible.
// Captured timestamps from commits newer than ts — including a capture
// racing a later install — compare above ts and yield the same verdict
// a pre-install capture would, so capture timing never changes
// visibility at ts.
func (cs *colSnap) visibleAt(row int, ts uint64) bool {
	if row >= cs.rows() {
		return false
	}
	if b := cs.data.GetU(row); b > ts {
		return false // unborn (NeverTS) or born after ts
	}
	d := cs.wts.GetU(row)
	return d == 0 || d > ts
}

func newSnapManager(db *DB, refreshEvery uint64) *snapManager {
	return &snapManager{
		db:           db,
		refreshEvery: refreshEvery,
		live:         map[*generation]struct{}{},
	}
}

// noteCommit is the oracle's complete hook, called inside the commit
// critical section: it only touches atomics, flagging the current
// generation stale once refreshEvery commits have completed.
func (m *snapManager) noteCommit(uint64) {
	if m.refreshEvery == 0 {
		return
	}
	if m.commitsSince.Add(1) >= m.refreshEvery {
		m.stale.Store(true)
	}
}

// acquire pins and returns the generation a beginning OLAP transaction
// reads in, rotating first if the refresh policy fired.
func (m *snapManager) acquire() *generation {
	m.mu.Lock()
	cur := m.current
	var dead *generation
	if cur == nil || m.shouldRotate(cur) {
		if cur != nil && m.unpinLocked(cur) {
			dead = cur // manager held the last pin: destroy below
		}
		cur = &generation{mgr: m, cols: map[mvcc.ColumnID]*colSnap{}}
		m.live[cur] = struct{}{}
		m.generations++
		if !m.closed {
			// The manager's own pin keeps the current generation alive
			// between transactions. A Begin racing Close skips it, so
			// the transaction's release is the last pin and nothing
			// outlives it.
			cur.refs = 1
			m.current = cur
		}
	}
	if !cur.tsOK {
		// The generation's timestamp is fixed by its first reader, so
		// an idle engine never serves needlessly stale snapshots.
		cur.ts = m.db.oracle.Completed()
		cur.tsOK = true
		m.commitsSince.Store(0)
		m.stale.Store(false)
	}
	cur.refs++
	m.mu.Unlock()
	if dead != nil {
		dead.destroy()
	}
	return cur
}

// acquireFresh pins a generation guaranteed to have been created after
// this call began: the current generation is retired first (its cached
// column snapshots with it). Checkpoints must use this instead of
// acquire — a column snapshot cached by an earlier OLAP pin can
// predate a bulk load, and a checkpoint written from it would persist
// pre-load data while truncating the load's WAL records (loads, unlike
// commits, leave no timestamped records above the checkpoint timestamp
// to survive truncation). The stale flag is consumed inside acquire's
// critical section only when a new generation is created, so every
// generation this returns was born after the Store below — after
// whatever state change the caller needs captured.
func (m *snapManager) acquireFresh() *generation {
	m.stale.Store(true)
	return m.acquire()
}

func (m *snapManager) shouldRotate(g *generation) bool {
	if !g.tsOK {
		return false // never read from: still perfectly fresh
	}
	return m.stale.Load()
}

// release drops one pin; the last pin releases every column snapshot
// the generation created.
func (m *snapManager) release(g *generation) {
	m.mu.Lock()
	dead := m.unpinLocked(g)
	m.mu.Unlock()
	if dead {
		g.destroy()
	}
}

func (m *snapManager) unpinLocked(g *generation) (dead bool) {
	g.refs--
	if g.refs > 0 {
		return false
	}
	delete(m.live, g)
	if m.current == g {
		m.current = nil
	}
	return true
}

func (g *generation) destroy() {
	g.colMu.Lock()
	defer g.colMu.Unlock()
	for _, cs := range g.cols {
		cs.snap.Release()
		g.mgr.released.Add(1)
	}
	if n := len(g.cols); n > 0 {
		g.mgr.db.tel.rec.Record(telemetry.EvSnapRelease, int64(n), 0, int64(g.ts))
	}
	g.cols = map[mvcc.ColumnID]*colSnap{}
}

// minTS returns the oldest timestamp any live generation reads at, or
// ifEmpty when none has a timestamp yet — the snapshot side of the
// version-chain GC floor.
//
// A current generation that only the manager still pins and that the
// refresh policy has already condemned is retired here rather than
// counted: the next acquire would discard it unread anyway, and on a
// database no OLAP transaction ever begins on again (OLTP-only after a
// checkpoint or a replica bootstrap) there is no next acquire — the
// stale pin would hold the floor, and with it every version chain and
// recent-commit record, forever.
func (m *snapManager) minTS(ifEmpty uint64) uint64 {
	m.mu.Lock()
	cur := m.current
	retire := cur != nil && cur.refs == 1 && m.shouldRotate(cur)
	if retire {
		m.unpinLocked(cur)
	}
	minTS := ifEmpty
	for g := range m.live {
		if g.tsOK && g.ts < minTS {
			minTS = g.ts
		}
	}
	m.mu.Unlock()
	if retire {
		cur.destroy()
	}
	return minTS
}

// close drops the manager's pin on the current generation and stops
// the manager from taking new ones.
func (m *snapManager) close() {
	m.mu.Lock()
	m.closed = true
	cur := m.current
	var dead bool
	if cur != nil {
		dead = m.unpinLocked(cur)
	}
	m.mu.Unlock()
	if dead {
		cur.destroy()
	}
}

// colSnap returns the generation's snapshot of c, creating it on first
// touch: this is the paper's fine-granular mode, where only the columns
// a query actually reads are ever snapshotted. Creation runs under the
// commit lock of the shard c is routed to, which excludes concurrent
// materialisation into c; commits in other shards may proceed during
// capture, but they only store into their own columns' pages, and every
// row the snapshot holds with a write timestamp above the generation's
// timestamp is repaired from the version chains at read time — so
// out-of-order per-shard completion never leaks a torn or
// future-stamped value into an OLAP read. The capture covers the
// chunks below the table capacity published at capture time; rows in
// chunks mapped later were necessarily born after the generation's
// timestamp and are invisible to it anyway.
func (g *generation) colSnap(c *column) (*colSnap, error) {
	chunks := c.tab.st.Capacity() / c.tab.st.ChunkRows()
	dataRegs, wtsRegs := c.tab.st.ColumnRegions(c.id.Col, chunks)
	return g.capture(c.id, dataRegs, wtsRegs)
}

// visSnap returns the generation's snapshot of t's visibility arrays
// (birth as data, death as wts), captured under the table's owning
// (visibility pseudo-column) shard lock exactly like a data column —
// so a capture can never observe a half-installed row op.
func (g *generation) visSnap(t *table) (*colSnap, error) {
	chunks := t.st.Capacity() / t.st.ChunkRows()
	birthRegs, deathRegs := t.st.VisRegions(chunks)
	return g.capture(mvcc.VisColumnID(t.idx), birthRegs, deathRegs)
}

// capture snapshots the two region sets of a (pseudo-)column under its
// shard commit lock and caches the resolved page views in the
// generation.
func (g *generation) capture(id mvcc.ColumnID, primary, secondary []storage.Region) (*colSnap, error) {
	g.colMu.Lock()
	defer g.colMu.Unlock()
	if cs, ok := g.cols[id]; ok {
		return cs, nil
	}
	regs := make([]snapshot.Region, 0, len(primary)+len(secondary))
	for _, r := range primary {
		regs = append(regs, snapshot.Region{Addr: r.Addr, Len: r.Len})
	}
	for _, r := range secondary {
		regs = append(regs, snapshot.Region{Addr: r.Addr, Len: r.Len})
	}
	m := g.mgr
	shard := m.db.shards[m.db.shardOf(id)]
	shard.mu.Lock()
	start := time.Now()
	snap, err := m.db.strat.Snapshot(regs)
	elapsed := time.Since(start)
	shard.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.created.Add(1)
	m.createdNanos.Add(uint64(elapsed.Nanoseconds()))
	m.lastNanos.Store(uint64(elapsed.Nanoseconds()))
	// Counter first, histogram second: Stats snapshots histograms before
	// loading counters, so SnapshotCreateHist.Count never exceeds
	// SnapshotsCreated mid-capture (equal at quiescence).
	m.db.tel.snapCreate.Observe(elapsed)
	m.db.tel.rec.Record(telemetry.EvSnapCreate, int64(id.Table), int64(id.Col), elapsed.Nanoseconds())

	reader := snap.Reader()
	out := snap.Regions()
	rows := len(primary) * m.db.chunkRowsOf(id.Table)
	toStorage := func(rs []snapshot.Region) []storage.Region {
		s := make([]storage.Region, len(rs))
		for i, r := range rs {
			s[i] = storage.Region{Addr: r.Addr, Len: r.Len}
		}
		return s
	}
	cs := &colSnap{
		snap: snap,
		data: storage.ResolveRegions(reader, toStorage(out[:len(primary)]), rows),
		wts:  storage.ResolveRegions(reader, toStorage(out[len(primary):]), rows),
	}
	g.cols[id] = cs
	return cs, nil
}

// value reads row of c at the generation's timestamp: straight from the
// snapshot when the snapshotted write timestamp is old enough,
// otherwise from the version chain.
func (g *generation) value(c *column, cs *colSnap, row int) int64 {
	if cs.wts.GetU(row) <= g.ts {
		return cs.data.Get(row)
	}
	if v, ok := c.chain.VisibleAt(row, g.ts); ok {
		return v
	}
	// Unreachable while GC respects the generation floor; the snapshot
	// value is the best remaining answer.
	return cs.data.Get(row)
}
