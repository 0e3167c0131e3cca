package ankerdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/index"
	"ankerdb/internal/mvcc"
	"ankerdb/internal/repl"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Replication: a primary streams its durable WAL record payloads —
// commit, bulk-load and schema-log records, byte-identical to what its
// own crash recovery would replay — to read replicas over the framed
// protocol in internal/repl. A replica applies the stream continuously
// through the same idempotent-by-commitTS rules recovery uses, so
// primary and replica state converge by construction: replication IS
// recovery over the wire, with a consistent snapshot (the checkpoint
// format's sibling) as the bootstrap instead of a checkpoint file.
//
// Ordering. The publisher (internal/repl) releases records in WAL
// append order, commits gated behind the completion watermark, and
// in-band heartbeats carry watermarks that every covered record
// precedes. The replica applies single-threaded, taking the involved
// shard commit locks per record exactly like the primary's installer,
// and advances its own oracle only on heartbeats (ObserveCommitted) —
// so replica OLAP snapshots always read a prefix of the primary's
// committed history, never a torn middle.
//
// Resume vs bootstrap. Within a process lifetime a replica reconnects
// with AfterTS = its completed watermark: records applied beyond the
// last heartbeat all carry higher timestamps (the publisher's FIFO
// guarantees it) and re-apply idempotently when the primary's retained
// history replays them. Across a replica restart the watermark is not
// recoverable (its own WAL holds applied-beyond-watermark records that
// recovery seeds past), so a restarted replica re-bootstraps from a
// fresh snapshot — which fast-forwards whatever recovered state it
// already had.

// replHistCap is the publisher's retained-record window: how far back
// a reconnecting replica can resume without a re-bootstrap.
const replHistCap = 1 << 16

// replicaSendBuf is the per-replica bounded stream buffer (records). A
// replica a full buffer behind is disconnected rather than allowed to
// stall the primary's commit path.
const replicaSendBuf = 1 << 14

// dialHandshakeTimeout bounds the replica's hello/welcome exchange on
// a fresh connection.
const dialHandshakeTimeout = 10 * time.Second

// bootstrapFrameTimeout bounds each bootstrap frame read. Per frame,
// not overall: a large snapshot legitimately takes long, but a primary
// that accepts and then stalls must fail the bootstrap — without a
// deadline a stall during the initial bootstrap hangs Open forever.
const bootstrapFrameTimeout = 30 * time.Second

// startPublisher wires the WAL append hooks into a record publisher.
// Called during Open, before the DB is shared, on any serving database
// with durability enabled.
func (db *DB) startPublisher() {
	db.pub = repl.NewPublisher(replHistCap)
	db.wal.OnAppend = func(_ int, recs []wal.CommitRecord) {
		for _, r := range recs {
			db.pub.Stage(repl.Record{TS: r.TS, Type: repl.MsgCommit, Payload: r.Encode()})
		}
	}
	db.wal.OnLoad = func(_ int, recs []wal.LoadRecord) {
		for _, r := range recs {
			db.pub.Stage(repl.Record{Type: repl.MsgLoad, Payload: r.Encode()})
		}
	}
	db.wal.OnSchema = func(seq uint64, payload []byte) {
		db.pub.Stage(repl.Record{Type: repl.MsgSchema, Payload: schemaFrame(seq, payload)})
	}
}

// schemaFrame prefixes a raw schema-log payload with its log sequence.
// The sequence is the replica's exactly-once key: a bootstrap's
// schema-file replay overlaps the live stream, and blind re-application
// of a drop or truncate marker would not be idempotent.
func schemaFrame(seq uint64, payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(buf, seq)
	copy(buf[8:], payload)
	return buf
}

func splitSchemaFrame(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("ankerdb: short schema frame (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// replPeer is the primary-side state of one connected replica feed.
type replPeer struct {
	acked atomic.Uint64
}

// addPeer registers a connected replica feed.
func (db *DB) addPeer(p *replPeer) {
	db.peerMu.Lock()
	if db.peers == nil {
		db.peers = map[*replPeer]struct{}{}
	}
	db.peers[p] = struct{}{}
	db.peerMu.Unlock()
}

func (db *DB) removePeer(p *replPeer) {
	db.peerMu.Lock()
	delete(db.peers, p)
	db.peerMu.Unlock()
}

// noteAck records a replica's applied watermark and observes its lag —
// the primary's completed commit count beyond what the replica has
// applied, the bounded-staleness number the ISSUE's serving contract
// reports (Stats.MaxReplicaLag, ankerdb_repl_lag_commits).
func (db *DB) noteAck(p *replPeer, appliedTS uint64) {
	p.acked.Store(appliedTS)
	if c := db.oracle.Completed(); c > appliedTS {
		db.tel.replLag.Observe(time.Duration(c - appliedTS))
	} else {
		db.tel.replLag.Observe(0)
	}
}

// maxReplicaLag returns the worst lag over connected replica feeds, in
// commit timestamps: completed watermark minus the replica's newest
// acknowledged applied timestamp. Feeds that have not acked yet count
// from zero (full lag).
func (db *DB) maxReplicaLag() uint64 {
	c := db.oracle.Completed()
	var max uint64
	db.peerMu.Lock()
	for p := range db.peers {
		if a := p.acked.Load(); c > a && c-a > max {
			max = c - a
		}
	}
	db.peerMu.Unlock()
	return max
}

// streamBootstrap ships a consistent snapshot to a freshly attached
// replica: the full schema log raw (so the replica reproduces the
// exact table-slot assignment the commit records address), then every
// live table's state at one snapshot generation timestamp. The caller
// attached the replica's subscriber BEFORE calling — records released
// during the capture are duplicated into the snapshot, which the
// replay-by-timestamp rules make harmless; the reverse order would
// lose them.
func (db *DB) streamBootstrap(c *repl.Conn) error {
	if err := db.wal.ReplaySchemaRaw(func(seq uint64, payload []byte) error {
		return c.WriteMsg(repl.MsgSchema, schemaFrame(seq, payload))
	}); err != nil {
		return err
	}
	// Read side of the re-bootstrap gate: on a replica serving as a
	// chained primary, the snapshot capture must not span the replica's
	// own in-place re-bootstrap.
	db.olapGate.RLock()
	defer db.olapGate.RUnlock()
	g := db.snaps.acquireFresh()
	defer db.snaps.release(g)
	db.mu.RLock()
	tabs := make([]*table, 0, len(db.tabList))
	for _, t := range db.tabList {
		if !t.dropped.Load() {
			tabs = append(tabs, t)
		}
	}
	db.mu.RUnlock()
	if err := c.WriteBody(repl.MsgSnapBegin, &repl.SnapBegin{TS: g.ts, Tables: len(tabs)}); err != nil {
		return err
	}
	for _, t := range tabs {
		body, err := encodeSnapTable(g, t)
		if err != nil {
			return err
		}
		if err := c.WriteMsg(repl.MsgSnapTable, body); err != nil {
			return err
		}
	}
	if err := c.WriteBody(repl.MsgSnapEnd, &repl.SnapEnd{TS: g.ts}); err != nil {
		return err
	}
	return c.Flush()
}

// encodeSnapTable serialises one table's snapshot body: slot, name,
// row count, column count, then per column the data and
// write-timestamp words, then the birth and death arrays, then the
// dictionary — the checkpoint section layout flattened into one frame.
// Capture-before-write and the min-captured-rows rule mirror
// Checkpoint: rows born above the captured capacity carry commit
// timestamps past the snapshot's and replay from the live stream.
func encodeSnapTable(g *generation, t *table) ([]byte, error) {
	snaps := make([]*colSnap, len(t.cols))
	for i, c := range t.cols {
		cs, err := g.colSnap(c)
		if err != nil {
			return nil, err
		}
		snaps[i] = cs
	}
	vs, err := g.visSnap(t)
	if err != nil {
		return nil, err
	}
	rows := vs.rows()
	for _, cs := range snaps {
		if cs.rows() < rows {
			rows = cs.rows()
		}
	}
	name := t.st.Schema().Table
	var buf bytes.Buffer
	var hdr [8]byte
	wu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(hdr[:], v)
		buf.Write(hdr[:])
	}
	wu64(uint64(t.idx))
	wu64(uint64(len(name)))
	buf.WriteString(name)
	wu64(uint64(rows))
	wu64(uint64(len(t.cols)))
	for _, cs := range snaps {
		if err := storage.WriteWords(&buf, rows, cs.data.GetU); err != nil {
			return nil, err
		}
		if err := storage.WriteWords(&buf, rows, cs.wts.GetU); err != nil {
			return nil, err
		}
	}
	if err := storage.WriteWords(&buf, rows, vs.data.GetU); err != nil {
		return nil, err
	}
	if err := storage.WriteWords(&buf, rows, vs.wts.GetU); err != nil {
		return nil, err
	}
	// Dictionary last, after every capture: append-only, so it covers
	// every code the captured words can hold.
	strs := t.st.Dict().Strings()
	wu64(uint64(len(strs)))
	for _, s := range strs {
		wu64(uint64(len(s)))
		buf.WriteString(s)
	}
	return buf.Bytes(), nil
}

// applySnapTable loads one snapshot table body into the replica's
// recreated (or recovered) table, slot-addressed and validated against
// the schema exactly like checkpoint sections. Fast-forward semantics:
// the snapshot is the primary's state at its timestamp, which is at or
// above anything the replica holds, so overwriting in place is always
// a step forward. noteTS folds every loaded stamp into the oracle
// seed.
func (db *DB) applySnapTable(body []byte, noteTS func(uint64)) error {
	r := bytes.NewReader(body)
	var hdr [8]byte
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(hdr[:]), nil
	}
	slot64, err := ru64()
	if err != nil {
		return err
	}
	nameLen, err := ru64()
	if err != nil {
		return err
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return err
	}
	rows64, err := ru64()
	if err != nil {
		return err
	}
	cols64, err := ru64()
	if err != nil {
		return err
	}
	slot, rows, cols := int(slot64), int(rows64), int(cols64)
	name := string(nameBuf)
	db.mu.RLock()
	nTabs := len(db.tabList)
	db.mu.RUnlock()
	if slot < 0 || slot >= nTabs {
		return fmt.Errorf("ankerdb: snapshot table %q claims slot %d of %d", name, slot, nTabs)
	}
	t := db.tableByIdx(slot)
	if got := t.st.Schema().Table; got != name {
		return fmt.Errorf("ankerdb: snapshot table %q at slot %d, schema says %q", name, slot, got)
	}
	if len(t.cols) != cols {
		return fmt.Errorf("ankerdb: snapshot table %q has %d columns, schema says %d", name, cols, len(t.cols))
	}
	if rows < 0 || rows > maxRecoveredRow {
		return fmt.Errorf("ankerdb: snapshot table %q claims %d rows", name, rows)
	}
	if rows > 0 {
		if err := db.growRecovered(t, rows-1); err != nil {
			return err
		}
	}
	// Exclude snapshot captures while the arrays are overwritten: a
	// replica generation pinned mid-fill would capture a torn mix.
	db.lockAllShards()
	defer db.unlockAllShards()
	for _, c := range t.cols {
		if err := storage.ReadWordsRegion(r, rows, c.data.FillWindow); err != nil {
			return err
		}
		if err := storage.ReadWordsRegion(r, rows, func(start int, words []uint64) {
			for _, v := range words {
				noteTS(v)
			}
			c.wts.FillWindow(start, words)
		}); err != nil {
			return err
		}
	}
	birth, death := t.st.Birth(), t.st.Death()
	if err := storage.ReadWordsRegion(r, rows, func(start int, words []uint64) {
		for _, v := range words {
			if v != storage.NeverTS {
				noteTS(v)
			}
			birth.FillWindow(start, words)
		}
	}); err != nil {
		return err
	}
	if err := storage.ReadWordsRegion(r, rows, func(start int, words []uint64) {
		for _, v := range words {
			noteTS(v)
		}
		death.FillWindow(start, words)
	}); err != nil {
		return err
	}
	nStrs, err := ru64()
	if err != nil {
		return err
	}
	dict := make([]string, nStrs)
	for i := range dict {
		sl, err := ru64()
		if err != nil {
			return err
		}
		sb := make([]byte, sl)
		if _, err := io.ReadFull(r, sb); err != nil {
			return err
		}
		dict[i] = string(sb)
	}
	t.st.Dict().Load(dict)
	return nil
}

// replicaState is a replica's connector: the background goroutine that
// dials the primary, bootstraps or resumes, and applies the stream.
type replicaState struct {
	db   *DB
	addr string
	ns   string

	quit chan struct{}
	done chan struct{}

	cmu sync.Mutex
	cur *repl.Conn

	connected  atomic.Bool
	reconnects atomic.Uint64
	bootstraps atomic.Uint64
	applied    atomic.Uint64 // newest commit-record timestamp applied
	sourceW    atomic.Uint64 // newest heartbeat watermark observed
	frames     atomic.Uint64 // stream records applied

	// schemaSeq is the next schema-log sequence to apply; lower-seq
	// records (bootstrap/stream overlap, resume replays) are skipped.
	// Touched only by the connector goroutine (and Open, before it
	// starts).
	schemaSeq uint64
}

// stop halts the connector: closes the quit channel, cuts the current
// connection out from under a blocking read, and waits for the
// goroutine to drain. Idempotent.
func (r *replicaState) stop() {
	r.cmu.Lock()
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	if r.cur != nil {
		_ = r.cur.Close()
	}
	r.cmu.Unlock()
	<-r.done
}

func (r *replicaState) stopping() bool {
	select {
	case <-r.quit:
		return true
	default:
		return false
	}
}

func (r *replicaState) setConn(c *repl.Conn) {
	r.cmu.Lock()
	r.cur = c
	if r.stopping() && c != nil {
		_ = c.Close()
	}
	r.cmu.Unlock()
}

// dial connects to the primary and performs the hello/welcome
// handshake. afterTS = 0 requests a full bootstrap; a positive value
// asks to resume above it (the primary may still answer with a
// bootstrap when its retained history no longer reaches back).
func (r *replicaState) dial(afterTS uint64) (*repl.Conn, repl.Welcome, error) {
	nc, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return nil, repl.Welcome{}, err
	}
	c := repl.NewConn(nc)
	// The handshake is a bounded exchange: deadline it so a primary that
	// accepts and stalls errors out instead of hanging the caller (Open,
	// on the initial bootstrap). Cleared on success — the live stream
	// blocks on reads indefinitely by design.
	_ = c.SetDeadline(time.Now().Add(dialHandshakeTimeout))
	if err := c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion, Role: repl.RoleReplica, Namespace: r.ns, AfterTS: afterTS}); err != nil {
		_ = c.Close()
		return nil, repl.Welcome{}, err
	}
	typ, payload, err := c.ReadMsg()
	if err != nil {
		_ = c.Close()
		return nil, repl.Welcome{}, err
	}
	_ = c.SetDeadline(time.Time{})
	switch typ {
	case repl.MsgWelcome:
		var w repl.Welcome
		if err := repl.Decode(payload, &w); err != nil {
			_ = c.Close()
			return nil, repl.Welcome{}, err
		}
		// The welcome carries the primary's completed watermark: seed
		// the staleness report now instead of waiting for the first
		// heartbeat, so ReplicaSourceTS is meaningful from the instant
		// the connection is live.
		if w.TS > r.sourceW.Load() {
			r.sourceW.Store(w.TS)
		}
		return c, w, nil
	case repl.MsgErr:
		var we repl.WireErr
		_ = repl.Decode(payload, &we)
		_ = c.Close()
		return nil, repl.Welcome{}, fmt.Errorf("ankerdb: primary refused replica: %s", we.Msg)
	default:
		_ = c.Close()
		return nil, repl.Welcome{}, fmt.Errorf("ankerdb: unexpected handshake frame type %d", typ)
	}
}

// runBootstrap consumes a snapshot bootstrap (schema frames, SnapBegin,
// table bodies, SnapEnd) and finishes it: rebuild the row allocators,
// zone maps and secondary indexes from the loaded arrays, and observe
// the snapshot timestamp. The caller holds db.olapGate write-side (the
// rebuild fast-forwards arrays in place under pinned OLAP readers
// otherwise) and, on a durable replica, checkpoints AFTER the gate is
// released — the snapshot's data is not in the replica's own WAL, and
// Checkpoint itself pins a generation under the gate's read side.
// Frame reads are individually deadlined so a primary that accepts and
// stalls fails the bootstrap instead of hanging the caller.
func (r *replicaState) runBootstrap(c *repl.Conn) error {
	db := r.db
	var maxWTS uint64
	noteTS := func(v uint64) {
		if v > maxWTS {
			maxWTS = v
		}
	}
	tables := -1
	var snapTS uint64
	for {
		_ = c.SetReadDeadline(time.Now().Add(bootstrapFrameTimeout))
		typ, payload, err := c.ReadMsg()
		if err != nil {
			return err
		}
		switch typ {
		case repl.MsgSchema:
			if err := r.applySchema(payload); err != nil {
				return err
			}
		case repl.MsgSnapBegin:
			var sb repl.SnapBegin
			if err := repl.Decode(payload, &sb); err != nil {
				return err
			}
			snapTS, tables = sb.TS, sb.Tables
		case repl.MsgSnapTable:
			if tables <= 0 {
				return fmt.Errorf("ankerdb: snapshot table outside SnapBegin/SnapEnd")
			}
			if err := db.applySnapTable(payload, noteTS); err != nil {
				return err
			}
			tables--
		case repl.MsgSnapEnd:
			if tables != 0 {
				return fmt.Errorf("ankerdb: snapshot ended with %d tables missing", tables)
			}
			seed := snapTS
			if maxWTS > seed {
				seed = maxWTS
			}
			db.finishBootstrap(seed)
			if seed > r.applied.Load() {
				r.applied.Store(seed)
			}
			r.bootstraps.Add(1)
			db.tel.rec.Record(telemetry.EvReplBootstrap, int64(snapTS), int64(seed), 0)
			// The live stream blocks on reads indefinitely by design:
			// clear the per-frame bootstrap deadline before handing the
			// connection over.
			_ = c.SetReadDeadline(time.Time{})
			return nil
		case repl.MsgErr:
			var we repl.WireErr
			_ = repl.Decode(payload, &we)
			return fmt.Errorf("ankerdb: primary aborted bootstrap: %s", we.Msg)
		default:
			return fmt.Errorf("ankerdb: unexpected frame type %d during bootstrap", typ)
		}
	}
}

// finishBootstrap rebuilds the derived state recovery would rebuild —
// row allocators, visibility-log bases, zone maps, index contents —
// over the freshly loaded arrays, then publishes the snapshot
// timestamp to the replica's oracle.
func (db *DB) finishBootstrap(seed uint64) {
	db.lockAllShards()
	db.mu.RLock()
	tabs := append([]*table(nil), db.tabList...)
	db.mu.RUnlock()
	db.rebuildRowStateTabs(tabs)
	db.unlockAllShards()
	db.recomputeZones(0)
	db.lockAllShards()
	for _, t := range tabs {
		if t.dropped.Load() {
			continue
		}
		for _, c := range t.cols {
			if old := c.idx.Load(); old != nil {
				c.idx.Store(buildColumnIndex(c, old.Kind(), 0))
			}
		}
	}
	db.unlockAllShards()
	db.oracle.ObserveCommitted(seed)
	// Retire the current snapshot generation: across a re-bootstrap the
	// manager's own pin keeps it alive with its pre-bootstrap timestamp
	// and column-snapshot cache, and a reader acquiring it afterwards
	// would see fast-forwarded write timestamps above its ts with no
	// version-chain entries to repair from. Forcing staleness makes the
	// next acquire rotate to a generation born after the rebuild.
	db.snaps.stale.Store(true)
}

// applySchema applies one sequence-stamped schema frame: skip if the
// sequence was already applied, else append the raw payload to the
// replica's own schema log (byte-exact prefix of the primary's — the
// property that keeps slot assignment and a future re-bootstrap's
// sequence numbering aligned) and mirror the effect in memory.
func (r *replicaState) applySchema(frame []byte) error {
	seq, payload, err := splitSchemaFrame(frame)
	if err != nil {
		return err
	}
	if seq < r.schemaSeq {
		return nil // bootstrap/stream overlap or resume replay: already applied
	}
	if seq > r.schemaSeq {
		return fmt.Errorf("ankerdb: schema sequence gap: got %d, want %d", seq, r.schemaSeq)
	}
	db := r.db
	if db.wal != nil {
		if err := db.wal.AppendSchemaRaw(payload); err != nil {
			return err
		}
	}
	rec, err := wal.DecodeSchemaPayload(payload)
	if err != nil {
		return err
	}
	switch {
	case rec.Table != nil:
		schema := Schema{Table: rec.Table.Name}
		for _, cd := range rec.Table.Columns {
			schema.Columns = append(schema.Columns, ColumnDef{Name: cd.Name, Type: ColumnType(cd.Type), Index: IndexKind(cd.Index)})
		}
		if err := db.createTable(schema, rec.Table.Rows, false); err != nil {
			return err
		}
	case rec.Index != nil:
		db.applyIndexDDL(*rec.Index)
	case rec.DDL != nil:
		db.applyTableDDL(*rec.DDL)
		// The marker's timestamp is a commit TS the primary issued, and
		// it can run ahead of both applied commit records and the next
		// heartbeat (the marker streams immediately). Fold it into the
		// applied high-water so Promote seeds the oracle above it —
		// otherwise a promoted replica could issue commit timestamps at
		// or below an applied truncate barrier, leaving the new rows
		// invisible to it and recovery's truncate replay to kill them.
		if ts := rec.DDL.TS; ts > r.applied.Load() {
			r.applied.Store(ts)
		}
	}
	r.schemaSeq = seq + 1
	return nil
}

// applyIndexDDL mirrors an online CreateIndex/DropIndex at the
// replica. Tolerant of records that do not resolve (dropped tables):
// skipped like recovery skips them.
func (db *DB) applyIndexDDL(rec wal.IndexDDLRecord) {
	c, err := db.lookup(rec.Table, rec.Column)
	if err != nil {
		return
	}
	if rec.Drop {
		c.idx.Store(nil)
		return
	}
	kind := IndexKind(rec.Kind)
	if !kind.Valid() {
		return
	}
	db.lockAllShards()
	c.idx.Store(buildColumnIndex(c, kind, db.oracle.Completed()))
	db.unlockAllShards()
}

// applyTableDDL mirrors a DropTable/Truncate marker at the replica, at
// the RECORD's timestamp — the stamp that decides exactly which
// applied rows the barrier covers, same as recovery replay. The stream
// orders the marker after every commit its timestamp covers (the
// primary logged it under every shard lock), so applying it in stream
// position is exact.
func (db *DB) applyTableDDL(rec wal.TableDDLRecord) {
	db.mu.RLock()
	t := db.tables[rec.Name]
	db.mu.RUnlock()
	if t == nil {
		return
	}
	ts := rec.TS
	db.lockAllShards()
	t.ddlEpoch.Add(1)
	switch rec.Op {
	case wal.TableDDLDrop:
		t.dropTS = ts
		t.dropped.Store(true)
		db.mu.Lock()
		delete(db.tables, rec.Name)
		db.mu.Unlock()
		if db.gcFloor() > ts {
			db.freeDropped(t)
		}
	case wal.TableDDLTruncate:
		t.visMutated.Store(true)
		t.truncated = true
		truncateRows(t, ts)
		t.amu.Lock()
		t.next, t.free = 0, nil
		t.amu.Unlock()
		t.visLogReset(-int64(t.st.InitialRows()))
		floor := db.gcFloor()
		for _, c := range t.cols {
			if ix := c.idx.Load(); ix != nil {
				c.idx.Store(index.New(ix.Kind(), ts))
			}
			c.recomputeZones(floor)
		}
	}
	db.unlockAllShards()
	db.tel.rec.RecordNote(telemetry.EvTableDDL, int64(rec.Op), 0, int64(ts), rec.Name)
}

// applyCommit replays one streamed commit record into live replica
// state: the install() critical section reproduced under the involved
// shard commit locks, with recovery's idempotence guards — newer-wins
// per written cell, birth/death floor per row op — so duplicated
// records (bootstrap overlap, resume replays) are no-ops. Returns
// whether anything applied (a fully skipped duplicate is not
// re-appended to the replica's own WAL).
func (db *DB) applyCommit(rec wal.CommitRecord) (bool, error) {
	db.mu.RLock()
	nTabs := len(db.tabList)
	cols := make([]*column, len(rec.Writes))
	for i, w := range rec.Writes {
		if w.Table < 0 || w.Table >= nTabs {
			db.mu.RUnlock()
			return false, nil // beyond the applied schema prefix: skip whole
		}
		t := db.tabList[w.Table]
		if w.Col < 0 || w.Col >= len(t.cols) || w.Row < 0 || w.Row >= maxRecoveredRow {
			db.mu.RUnlock()
			return false, nil
		}
		cols[i] = t.cols[w.Col]
	}
	type opTab struct {
		t  *table
		op wal.RowOp
	}
	ops := make([]opTab, len(rec.Ops))
	for i, op := range rec.Ops {
		if op.Table < 0 || op.Table >= nTabs || op.Row < 0 || op.Row >= maxRecoveredRow {
			db.mu.RUnlock()
			return false, nil
		}
		ops[i] = opTab{t: db.tabList[op.Table], op: op}
	}
	db.mu.RUnlock()

	// Grow before taking shard locks (growth takes only the allocator
	// mutex and the storage layer's own locks).
	for i, w := range rec.Writes {
		if err := db.growRecovered(cols[i].tab, w.Row); err != nil {
			return false, err
		}
	}
	for _, o := range ops {
		if err := db.growRecovered(o.t, o.op.Row); err != nil {
			return false, err
		}
	}

	// The involved shard locks, ascending — the same exclusion the
	// primary's installer holds against snapshot capture.
	marks := make([]bool, len(db.shards))
	for i := range rec.Writes {
		marks[db.shardOf(cols[i].id)] = true
	}
	for _, o := range ops {
		marks[db.shardOf(mvcc.VisColumnID(o.op.Table))] = true
	}
	var locked []int
	for id, m := range marks {
		if m {
			db.shards[id].mu.Lock()
			locked = append(locked, id)
		}
	}
	defer func() {
		for i := len(locked) - 1; i >= 0; i-- {
			db.shards[locked[i]].mu.Unlock()
		}
	}()

	// Rows this record itself births skip the version-chain push,
	// exactly like install(): the displaced word belongs to a reclaimed
	// or never-born incarnation no reader can reach.
	inserted := func(tab, row int) bool {
		for _, o := range ops {
			if !o.op.Del && o.op.Table == tab && o.op.Row == row {
				return true
			}
		}
		return false
	}
	applied := false
	ts := rec.TS
	for i, w := range rec.Writes {
		c := cols[i]
		if ts <= c.wts.GetU(w.Row) {
			continue // a newer (or this very) write already owns the cell
		}
		val := w.Val
		if w.HasStr {
			val = c.dict.Encode(w.Str)
		}
		if inserted(w.Table, w.Row) {
			c.wts.SetU(w.Row, ts)
			c.data.Set(w.Row, val)
			c.widen(w.Row, val)
			if ix := c.idx.Load(); ix != nil {
				ix.Add(val, w.Row, ts)
			}
		} else {
			old := c.data.Get(w.Row)
			oldWTS := c.wts.GetU(w.Row)
			c.chain.Push(w.Row, old, oldWTS)
			c.noteVersioned(w.Row)
			c.wts.SetU(w.Row, ts)
			c.data.Set(w.Row, val)
			c.widen(w.Row, val)
			if ix := c.idx.Load(); ix != nil && old != val {
				ix.Kill(old, w.Row, ts)
				ix.Add(val, w.Row, ts)
			}
		}
		applied = true
	}
	// Row ops after all writes, death reset before birth, birth last —
	// the lock-free reader ordering install() documents.
	var visDeltas []struct {
		t *table
		d int64
	}
	for _, o := range ops {
		t, op := o.t, o.op
		birth, death := t.st.Birth(), t.st.Death()
		floor := death.GetU(op.Row)
		if b := birth.GetU(op.Row); b != storage.NeverTS && b > floor {
			floor = b
		}
		if ts <= floor {
			continue // duplicate: the applied state already covers it
		}
		t.visMutated.Store(true)
		if op.Del {
			for _, c := range t.cols {
				if ix := c.idx.Load(); ix != nil {
					ix.Kill(c.data.Get(op.Row), op.Row, ts)
				}
			}
			death.SetU(op.Row, ts)
			db.st.rowDeletes.Add(1)
		} else {
			death.SetU(op.Row, 0)
			birth.SetU(op.Row, ts)
			db.st.rowInserts.Add(1)
			t.amu.Lock()
			if op.Row >= t.next {
				t.next = op.Row + 1
			}
			t.amu.Unlock()
		}
		applied = true
		d := int64(1)
		if op.Del {
			d = -1
		}
		merged := false
		for i := range visDeltas {
			if visDeltas[i].t == t {
				visDeltas[i].d += d
				merged = true
				break
			}
		}
		if !merged {
			visDeltas = append(visDeltas, struct {
				t *table
				d int64
			}{t, d})
		}
	}
	for _, e := range visDeltas {
		if e.d != 0 {
			e.t.visLogAppend(ts, e.d)
		}
	}
	return applied, nil
}

// applyLoad replays one streamed bulk-load chunk: values land only on
// rows no commit has stamped (write timestamp zero), under the
// column's shard lock, zones widened (never replaced — live readers)
// and the column's index rebuilt like the primary's post-load reindex.
func (db *DB) applyLoad(rec wal.LoadRecord) bool {
	db.mu.RLock()
	var c *column
	if rec.Table >= 0 && rec.Table < len(db.tabList) {
		t := db.tabList[rec.Table]
		if rec.Col >= 0 && rec.Col < len(t.cols) {
			c = t.cols[rec.Col]
		}
	}
	db.mu.RUnlock()
	if c == nil {
		return false
	}
	n := len(rec.Vals)
	if rec.HasStrs {
		n = len(rec.Strs)
	}
	if rec.Start < 0 || n > c.data.Rows()-rec.Start || rec.HasStrs != (c.def.Type == Varchar) {
		return false
	}
	s := db.shards[db.shardOf(c.id)]
	s.mu.Lock()
	if rec.HasStrs {
		for i, str := range rec.Strs {
			if row := rec.Start + i; c.wts.GetU(row) == 0 {
				v := c.dict.Encode(str)
				c.data.Set(row, v)
				c.widen(row, v)
			}
		}
	} else {
		for i, v := range rec.Vals {
			if row := rec.Start + i; c.wts.GetU(row) == 0 {
				c.data.Set(row, v)
				c.widen(row, v)
			}
		}
	}
	s.mu.Unlock()
	if c.idx.Load() != nil {
		db.reindexColumn(c)
	}
	return true
}

// rebuildRowStateTabs is rebuildRowState over an explicit table list —
// the bootstrap path's variant (recovery's walks db.tabList directly,
// which is safe only single-threaded).
func (db *DB) rebuildRowStateTabs(tabs []*table) {
	for _, t := range tabs {
		if t.dropped.Load() {
			continue
		}
		birth, death := t.st.Birth(), t.st.Death()
		next := t.st.InitialRows()
		var free []int
		var live int64
		mutated := t.truncated
		for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
			b, d := birth.GetU(row), death.GetU(row)
			switch {
			case b != storage.NeverTS:
				if row >= next {
					next = row + 1
				}
				if d == 0 {
					live++
				}
				if b != 0 || d != 0 {
					mutated = true
				}
			case d != 0:
				free = append(free, row)
				if row >= next {
					next = row + 1
				}
				mutated = true
			}
		}
		t.amu.Lock()
		t.next, t.free = next, free
		t.amu.Unlock()
		if next > t.st.InitialRows() {
			mutated = true
		}
		t.visMutated.Store(mutated)
		t.visLogReset(live - int64(t.st.InitialRows()))
	}
}

// run is the connector's stream-and-reconnect loop: apply frames until
// the connection dies, then redial with exponential backoff, resuming
// from the completed watermark (or re-bootstrapping when the primary's
// history no longer reaches back).
func (r *replicaState) run(c *repl.Conn) {
	defer close(r.done)
	db := r.db
	for {
		r.setConn(c)
		r.connected.Store(true)
		err := r.stream(c)
		r.connected.Store(false)
		_ = c.Close()
		r.setConn(nil)
		if r.stopping() {
			return
		}
		db.tel.rec.RecordNote(telemetry.EvReplDisconnect, 0, 0, int64(db.oracle.Completed()), fmt.Sprint(err))
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-r.quit:
				return
			case <-time.After(backoff):
			}
			nc, welcome, derr := r.dial(db.oracle.Completed())
			if derr != nil {
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			r.reconnects.Add(1)
			if welcome.Snapshot {
				// History no longer reaches back: re-bootstrap in place
				// (fast-forward; see applySnapTable). Write side of the
				// OLAP gate: the rebuild overwrites arrays without pushing
				// displaced values into version chains and resets the
				// visibility logs, so every pinned generation must drain
				// first and new OLAP begins block until the state is
				// consistent again.
				r.setConn(nc)
				db.olapGate.Lock()
				berr := r.runBootstrap(nc)
				db.olapGate.Unlock()
				if berr != nil {
					_ = nc.Close()
					r.setConn(nil)
					if r.stopping() {
						return
					}
					continue
				}
				if db.wal != nil {
					// The snapshot bytes never touched the replica's own
					// WAL: checkpoint so a restart recovers them. Failure
					// is not fatal to serving — a restart would just
					// re-bootstrap.
					_ = db.Checkpoint()
				}
			}
			c = nc
			break
		}
	}
}

// stream applies frames from one live connection until it errors.
func (r *replicaState) stream(c *repl.Conn) error {
	db := r.db
	for {
		typ, payload, err := c.ReadMsg()
		if err != nil {
			return err
		}
		switch typ {
		case repl.MsgCommit:
			rec, err := wal.DecodeCommitPayload(payload)
			if err != nil {
				return err
			}
			applied, err := db.applyCommit(rec)
			if err != nil {
				return err
			}
			if applied {
				if rec.TS > r.applied.Load() {
					r.applied.Store(rec.TS)
				}
				if db.wal != nil {
					logShard := 0
					if len(rec.Ops) > 0 {
						logShard = db.shardOf(mvcc.VisColumnID(rec.Ops[0].Table))
					} else if len(rec.Writes) > 0 {
						logShard = db.shardOf(mvcc.ColumnID{Table: rec.Writes[0].Table, Col: rec.Writes[0].Col})
					}
					// Failure poisons the log and surfaces through
					// Stats/metrics; serving from memory stays correct.
					_ = db.wal.AppendCommits(logShard, []wal.CommitRecord{rec})
				}
			}
			r.frames.Add(1)
		case repl.MsgLoad:
			rec, err := wal.DecodeLoadPayload(payload)
			if err != nil {
				return err
			}
			if db.applyLoad(rec) && db.wal != nil {
				_ = db.wal.AppendLoads(db.shardOf(mvcc.ColumnID{Table: rec.Table, Col: rec.Col}), []wal.LoadRecord{rec})
			}
			r.frames.Add(1)
		case repl.MsgSchema:
			if err := r.applySchema(payload); err != nil {
				return err
			}
			r.frames.Add(1)
		case repl.MsgHeartbeat:
			var hb repl.Heartbeat
			if err := repl.Decode(payload, &hb); err != nil {
				return err
			}
			r.sourceW.Store(hb.Watermark)
			// Every record at or below the watermark precedes this frame
			// (publisher contract), so the replica's committed prefix is
			// complete through it: publish to local readers, ack upstream.
			db.oracle.ObserveCommitted(hb.Watermark)
			if err := c.SendBody(repl.MsgAck, &repl.Ack{AppliedTS: db.oracle.Completed()}); err != nil {
				return err
			}
		case repl.MsgErr:
			var we repl.WireErr
			_ = repl.Decode(payload, &we)
			return fmt.Errorf("ankerdb: primary closed stream: %s", we.Msg)
		default:
			return fmt.Errorf("ankerdb: unexpected stream frame type %d", typ)
		}
	}
}

// Promote turns a replica into a writable primary — the failover path.
// requireTS is the caller's data-loss guard: the newest commit
// timestamp known to be acknowledged anywhere (typically the max
// completed watermark over surviving replicas); a replica whose
// applied watermark has not reached it refuses with ErrStalePromotion
// and KEEPS REPLICATING, so the caller can promote the replica that is
// ahead instead. On success the connector stops, the oracle is
// re-seeded above every applied timestamp, the row allocators are
// recomputed from the applied arrays (free-list entries consumed by
// streamed inserts must not be handed out again), and local writes are
// accepted. Clients re-resolve to the promoted address themselves —
// the engine does not own service discovery.
func (db *DB) Promote(requireTS uint64) error {
	r := db.rep
	if r == nil || db.promoted.Load() {
		return ErrNotReplica
	}
	if w := db.oracle.Completed(); w < requireTS {
		return fmt.Errorf("%w: applied watermark %d behind required %d", ErrStalePromotion, w, requireTS)
	}
	r.stop()
	db.lockAllShards()
	// Applied-beyond-watermark records can sit above Completed(): seed
	// above ALL of them so freshly issued timestamps never collide.
	seed := r.applied.Load()
	if c := db.oracle.Completed(); c > seed {
		seed = c
	}
	db.oracle.Seed(seed)
	db.promoteRowState()
	db.unlockAllShards()
	db.promoted.Store(true)
	db.tel.rec.Record(telemetry.EvReplPromote, int64(seed), int64(requireTS), 0)
	return nil
}

// promoteRowState recomputes every table's row allocator from the
// applied visibility arrays — rebuildRowState minus the visibility-log
// reset, which pinned OLAP readers still depend on. The caller holds
// every shard commit lock.
func (db *DB) promoteRowState() {
	db.mu.RLock()
	tabs := append([]*table(nil), db.tabList...)
	db.mu.RUnlock()
	for _, t := range tabs {
		if t.dropped.Load() {
			continue
		}
		birth, death := t.st.Birth(), t.st.Death()
		next := t.st.InitialRows()
		var free []int
		for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
			b, d := birth.GetU(row), death.GetU(row)
			switch {
			case b != storage.NeverTS:
				if row >= next {
					next = row + 1
				}
			case d != 0:
				free = append(free, row)
				if row >= next {
					next = row + 1
				}
			}
		}
		t.amu.Lock()
		t.next, t.free = next, free
		t.amu.Unlock()
	}
}

// replicaWriteGuard rejects local mutation on an unpromoted replica.
func (db *DB) replicaWriteGuard() error {
	if db.rep != nil && !db.promoted.Load() {
		return ErrReplicaRead
	}
	return nil
}

// initReplication wires the serving and replica tiers at Open time:
// the WAL publisher and listener on a serving node, the synchronous
// initial bootstrap plus background connector on a replica.
func (db *DB) initReplication(cfg *config) error {
	ns := cfg.namespace
	if ns == "" {
		ns = "default"
	}
	if db.wal != nil && (cfg.serveAddr != "" || cfg.replicaOf != "") {
		db.startPublisher()
	}
	if cfg.replicaOf != "" {
		r := &replicaState{
			db:   db,
			addr: cfg.replicaOf,
			ns:   ns,
			quit: make(chan struct{}),
			done: make(chan struct{}),
		}
		if db.wal != nil {
			// A recovered replica's schema log is a byte-exact prefix of
			// the primary's: continue the sequence instead of re-applying.
			r.schemaSeq = db.wal.SchemaRecords()
		}
		db.rep = r
		// Always a fresh bootstrap at open: the completed watermark is
		// not recoverable across a restart (see the package comment), and
		// the snapshot fast-forwards recovered state.
		c, welcome, err := r.dial(0)
		if err != nil {
			close(r.done)
			return err
		}
		r.setConn(c)
		if welcome.Snapshot {
			// The DB is not shared yet, but the auto-checkpointer may
			// already be running (Open starts it before replication):
			// hold the OLAP gate so its generation pin cannot span the
			// in-place fill.
			db.olapGate.Lock()
			err := r.runBootstrap(c)
			db.olapGate.Unlock()
			if err != nil {
				_ = c.Close()
				close(r.done)
				return err
			}
			if db.wal != nil {
				// The snapshot bytes never touched the replica's own WAL:
				// checkpoint now so a restart recovers them instead of
				// re-bootstrapping. Fatal at Open, unlike on reconnect —
				// the caller asked for a durable replica it does not have.
				if err := db.Checkpoint(); err != nil {
					_ = c.Close()
					close(r.done)
					return err
				}
			}
		}
		// The connection is live before the apply loop starts: report
		// it so Stats read between Open returning and run's first
		// iteration do not claim a disconnected replica.
		r.connected.Store(true)
		go r.run(c)
	}
	if cfg.serveAddr != "" {
		srv, err := newServer(cfg.serveAddr, cfg.maxSessions)
		if err != nil {
			return err
		}
		srv.Register(ns, db)
		db.srv = srv
	}
	return nil
}

// ServeAddr returns the WithServeAddr listener's resolved address
// (host:0 resolves to the picked port), or "" when not serving.
func (db *DB) ServeAddr() string {
	if db.srv == nil {
		return ""
	}
	return db.srv.Addr()
}
