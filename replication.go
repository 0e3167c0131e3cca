package ankerdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/repl"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// Replication: a primary streams its durable WAL record payloads —
// commit, bulk-load and schema-log records, byte-identical to what its
// own crash recovery would replay — to read replicas over the framed
// protocol in internal/repl. A replica applies the stream continuously
// through the idempotent-by-commitTS apply rules recovery runs — the
// same functions (apply.go), so primary and replica state converge by
// construction: replication IS recovery over the wire, bootstrapped by
// the checkpoint body itself — its table sections, cut into MsgSnapChunk
// frames of at most snapChunkLen bytes — instead of a checkpoint file.
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
// already had. A fast-forward that dies mid-table leaves torn rows:
// until a later one completes the replica refuses snapshot pins and
// promotion (DB.halfBootstrapped) and redials for a whole snapshot.

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

// snapChunkLen bounds the body of one bootstrap frame: the snapshot
// body — the checkpoint format's table sections, one after another —
// crosses the wire cut into MsgSnapChunk frames of at most this many
// bytes (the section writer's 64 KiB buffer makes most exactly that
// long), so neither side ever holds more than a chunk of it. A
// bootstrapping replica lowers its read limit to this bound, which
// therefore also caps the schema frames that precede the body.
const snapChunkLen = 256 << 10

// snapChunkWriter is the io.Writer the primary's section writer
// streams into: every write leaves as MsgSnapChunk frames.
type snapChunkWriter struct{ c *repl.Conn }

func (w snapChunkWriter) Write(p []byte) (int, error) {
	for off := 0; off < len(p); off += snapChunkLen {
		if err := w.c.WriteMsg(repl.MsgSnapChunk, p[off:min(off+snapChunkLen, len(p))]); err != nil {
			return off, err
		}
	}
	return len(p), nil
}

// snapChunkReader is its inverse on the replica: an io.Reader over the
// payloads of consecutive MsgSnapChunk frames. Any other frame inside
// the body ends it with an error.
type snapChunkReader struct {
	next func() (repl.MsgType, []byte, error) // the deadlined frame read
	cur  []byte                               // unread rest of the current frame (valid until the next read)
}

func (r *snapChunkReader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		typ, payload, err := r.next()
		switch {
		case err != nil:
			return 0, err
		case typ == repl.MsgErr:
			return 0, wireErr("primary aborted bootstrap", payload)
		case typ != repl.MsgSnapChunk:
			return 0, fmt.Errorf("%w: frame type %d inside the snapshot body", repl.ErrBadFrame, typ)
		}
		r.cur = payload
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// streamBootstrap ships a consistent snapshot to a freshly attached
// replica: the full schema log raw (so the replica reproduces the
// exact table-slot assignment the commit records address), then every
// live table's section at one snapshot generation timestamp — the
// checkpoint body, written by the checkpoint's own section writer into
// bounded frames instead of a file. The caller attached the replica's
// subscriber BEFORE calling — records released during the capture are
// duplicated into the snapshot, which the replay-by-timestamp rules
// make harmless; the reverse order would lose them.
func (db *DB) streamBootstrap(c *repl.Conn) error {
	if err := db.wal.ReplaySchemaRaw(func(seq uint64, payload []byte) error {
		return c.WriteMsg(repl.MsgSchema, schemaFrame(seq, payload))
	}); err != nil {
		return err
	}
	// Read side of the re-bootstrap gate: on a replica serving as a
	// chained primary, the snapshot capture must not span the replica's
	// own in-place re-bootstrap.
	if err := db.pinGate(); err != nil {
		return err
	}
	defer db.olapGate.RUnlock()
	g := db.snaps.acquireFresh()
	defer db.snaps.release(g)
	tabs := db.liveTables()
	if err := c.WriteBody(repl.MsgSnapBegin, &repl.SnapBegin{TS: g.ts, Tables: len(tabs)}); err != nil {
		return err
	}
	w := wal.NewCheckpointWriter(snapChunkWriter{c})
	for _, t := range tabs {
		if err := writeTableSection(w, g, t); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := c.WriteBody(repl.MsgSnapEnd, &repl.SnapEnd{TS: g.ts}); err != nil {
		return err
	}
	return c.Flush()
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
	// at is applyCommit's address scratch. Both are touched only by the
	// connector goroutine (and Open, before it starts).
	schemaSeq uint64
	at        resolved
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
func (r *replicaState) dial(afterTS uint64) (c *repl.Conn, w repl.Welcome, err error) {
	nc, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return nil, w, err
	}
	c = repl.NewConn(nc)
	defer func() {
		if err != nil {
			_ = c.Close()
			c = nil
		}
	}()
	// The handshake is a bounded exchange: deadline it so a primary that
	// accepts and stalls errors out instead of hanging the caller (Open,
	// on the initial bootstrap). Cleared on success — the live stream
	// blocks on reads indefinitely by design.
	_ = c.SetDeadline(time.Now().Add(dialHandshakeTimeout))
	if err = c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion, Role: repl.RoleReplica, Namespace: r.ns, AfterTS: afterTS}); err != nil {
		return c, w, err
	}
	typ, payload, err := c.ReadMsg()
	switch {
	case err != nil:
	case typ == repl.MsgErr:
		err = wireErr("primary refused replica", payload)
	case typ != repl.MsgWelcome:
		err = fmt.Errorf("ankerdb: unexpected handshake frame type %d", typ)
	default:
		err = repl.Decode(payload, &w)
	}
	if err != nil {
		return c, w, err
	}
	_ = c.SetDeadline(time.Time{})
	// The welcome carries the primary's completed watermark: seed the
	// staleness report now instead of waiting for the first heartbeat, so
	// ReplicaSourceTS is meaningful from the instant the connection is
	// live.
	if w.TS > r.sourceW.Load() {
		r.sourceW.Store(w.TS)
	}
	return c, w, nil
}

// wireErr is the error a MsgErr frame from the primary ends an exchange
// with.
func wireErr(what string, payload []byte) error {
	var we repl.WireErr
	_ = repl.Decode(payload, &we)
	return fmt.Errorf("ankerdb: %s: %s", what, we.Msg)
}

// runBootstrap consumes a snapshot bootstrap (schema frames, SnapBegin,
// the table sections in chunk frames, SnapEnd) and finishes it: rebuild
// the row allocators, zone maps and secondary indexes from the loaded
// arrays, and observe the snapshot timestamp. It holds db.olapGate
// write-side throughout: the sections overwrite arrays without pushing
// displaced values into version chains and the rebuild resets the
// visibility logs, so every pinned generation must drain first and new
// pins (OLAP begins, and the auto-checkpointer's even during Open)
// block until the state is consistent again — and are refused after it
// (DB.halfBootstrapped) when the stream dies between the first section
// byte and the rebuild, until a later bootstrap completes. On a durable
// replica the caller checkpoints AFTER it returns — the snapshot's data
// is not in the replica's own WAL, and Checkpoint itself pins a
// generation under the gate's read side. Frame reads are individually
// deadlined so a primary that accepts and stalls fails the bootstrap
// instead of hanging the caller, and bounded by snapChunkLen so no
// primary can ask a bootstrapping replica for an O(table) buffer.
func (r *replicaState) runBootstrap(c *repl.Conn) error {
	db := r.db
	db.olapGate.Lock()
	defer db.olapGate.Unlock()
	c.SetReadLimit(snapChunkLen + 1)
	// The live stream blocks on reads indefinitely by design and carries
	// records of any legitimate size: lift both bounds before handing
	// the connection over.
	defer func() {
		c.SetReadLimit(math.MaxUint32)
		_ = c.SetReadDeadline(time.Time{})
	}()
	next := func() (repl.MsgType, []byte, error) {
		_ = c.SetReadDeadline(time.Now().Add(bootstrapFrameTimeout))
		return c.ReadMsg()
	}
	for {
		typ, payload, err := next()
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
			// From here the sections overwrite rows in place, window by
			// window and array by array: until the last one has landed the
			// state is torn, and stays so if the stream dies first.
			db.halfBootstrapped.Store(true)
			seed := sb.TS // newest commit stamp the snapshot carries
			noteTS := func(v uint64) { seed = max(seed, v) }
			body := wal.NewCheckpointReader(&snapChunkReader{next: next})
			for i := 0; i < sb.Tables; i++ {
				// Every shard lock, per section: a Vacuum must not walk
				// arrays the section is overwriting.
				db.lockAllShards()
				err := db.readTableSection(body, noteTS)
				db.unlockAllShards()
				if err != nil {
					return err
				}
			}
			var se repl.SnapEnd
			if typ, payload, err = next(); err != nil {
				return err
			} else if typ != repl.MsgSnapEnd {
				return fmt.Errorf("%w: frame type %d where the snapshot should end", repl.ErrBadFrame, typ)
			} else if err := repl.Decode(payload, &se); err != nil {
				return err
			} else if se.TS != sb.TS {
				return fmt.Errorf("%w: snapshot of %d ends as %d", repl.ErrBadFrame, sb.TS, se.TS)
			}
			// End as recovery ends — allocators, visibility-log bases,
			// zones and index contents rebuilt over the loaded arrays —
			// then publish the snapshot to this side's readers.
			db.lockAllShards()
			db.rebuildDerived()
			db.unlockAllShards()
			db.oracle.ObserveCommitted(seed)
			// Retire the current snapshot generation: across a re-bootstrap
			// the manager's own pin keeps it alive with its pre-bootstrap
			// timestamp and column-snapshot cache, and a reader acquiring
			// it afterwards would see fast-forwarded write timestamps above
			// its ts with no version-chain entries to repair from. Forcing
			// staleness makes the next acquire rotate to a generation born
			// after the rebuild.
			db.snaps.stale.Store(true)
			db.halfBootstrapped.Store(false)
			if seed > r.applied.Load() {
				r.applied.Store(seed)
			}
			r.bootstraps.Add(1)
			db.tel.rec.Record(telemetry.EvReplBootstrap, int64(sb.TS), int64(seed), 0)
			return nil
		case repl.MsgErr:
			return wireErr("primary aborted bootstrap", payload)
		default:
			return fmt.Errorf("ankerdb: unexpected frame type %d during bootstrap", typ)
		}
	}
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
		if err := db.createTable(tableSchema(*rec.Table), rec.Table.Rows, false); err != nil {
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
	db.lockAllShards()
	defer db.unlockAllShards()
	switch rec.Op {
	case wal.TableDDLDrop:
		db.dropAt(t, rec.TS)
		db.mu.Lock()
		delete(db.tables, rec.Name)
		db.mu.Unlock()
	case wal.TableDDLTruncate:
		db.truncateAt(t, rec.TS)
	}
}

// applyCommit replays one streamed commit record into live replica
// state: the primary's install() critical section — the same kernels,
// under the involved shard commit locks — behind recovery's
// idempotence guards, newer-wins per written cell and visFloor per row
// op, so duplicated records (bootstrap overlap, resume replays) are
// no-ops. Returns whether anything applied (a fully skipped duplicate
// is not re-appended to the replica's own WAL).
func (r *replicaState) applyCommit(rec wal.CommitRecord) (bool, error) {
	db, at := r.db, &r.at
	if ok, err := db.resolve(&rec, at); !ok {
		return false, err
	}
	// The involved shard locks, ascending — the same exclusion the
	// primary's installer holds against snapshot capture.
	marks := make([]bool, len(db.shards))
	for _, c := range at.cols {
		marks[db.shardOf(c.id)] = true
	}
	for _, op := range rec.Ops {
		marks[db.shardOf(mvcc.VisColumnID(op.Table))] = true
	}
	for id, m := range marks {
		if m {
			db.shards[id].mu.Lock()
		}
	}

	births := func(tab, row int) bool {
		for _, op := range rec.Ops {
			if !op.Del && op.Table == tab && op.Row == row {
				return true
			}
		}
		return false
	}
	applied := false
	for i, w := range rec.Writes {
		// At or below the cell's stamp, a newer (or this very) write
		// already owns it.
		if c := at.cols[i]; rec.TS > c.wts.GetU(w.Row) {
			c.installCell(w.Row, c.redoValue(w), rec.TS, births(w.Table, w.Row))
			applied = true
		}
	}
	var deltas tableDeltas
	for i, op := range rec.Ops {
		t := at.tabs[i]
		if rec.TS <= t.visFloor(op.Row) {
			continue // duplicate: the applied state already covers it
		}
		db.installRowOp(t, op.Row, op.Del, rec.TS, &deltas)
		if !op.Del {
			// The primary's allocator reserved the slot; mirror its mark.
			t.amu.Lock()
			t.next = max(t.next, op.Row+1)
			t.amu.Unlock()
		}
		applied = true
	}
	deltas.flush(rec.TS)
	for id := len(marks) - 1; id >= 0; id-- {
		if marks[id] {
			db.shards[id].mu.Unlock()
		}
	}
	return applied, nil
}

// applyLoad replays one streamed bulk-load chunk under the column's
// shard lock, then rebuilds the column's index like the primary's
// post-load reindex.
func (db *DB) applyLoad(rec wal.LoadRecord) bool {
	c, ok := db.resolveLoad(rec)
	if !ok {
		return false
	}
	s := db.shards[db.shardOf(c.id)]
	s.mu.Lock()
	c.applyLoadChunk(rec)
	s.mu.Unlock()
	db.reindexColumn(c)
	return true
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
			after := db.oracle.Completed()
			if db.halfBootstrapped.Load() {
				after = 0 // only a whole snapshot repairs a torn one
			}
			nc, welcome, derr := r.dial(after)
			if derr != nil {
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			r.reconnects.Add(1)
			if welcome.Snapshot {
				// History no longer reaches back: re-bootstrap in place
				// (fast-forward; see readTableSection).
				r.setConn(nc)
				if berr := r.runBootstrap(nc); berr != nil {
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
			applied, err := r.applyCommit(rec)
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
					db.kickAutoCkpt()
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
				db.kickAutoCkpt()
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
			return wireErr("primary closed stream", payload)
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
// ahead instead; so does one whose in-place re-bootstrap died half-way
// and left torn rows (DB.halfBootstrapped). On success the connector
// stops, the oracle is re-seeded above every applied timestamp, the row
// allocators are recomputed from the applied arrays (free-list entries
// consumed by streamed inserts must not be handed out again), and local
// writes are accepted. Clients re-resolve to the promoted address themselves —
// the engine does not own service discovery.
func (db *DB) Promote(requireTS uint64) error {
	r := db.rep
	if r == nil || db.promoted.Load() {
		return ErrNotReplica
	}
	if w := db.oracle.Completed(); w < requireTS {
		return fmt.Errorf("%w: applied watermark %d behind required %d", ErrStalePromotion, w, requireTS)
	}
	torn := fmt.Errorf("%w: %v", ErrStalePromotion, errHalfBootstrapped)
	if db.halfBootstrapped.Load() {
		return torn
	}
	r.stop()
	if db.halfBootstrapped.Load() {
		// stop cut a re-bootstrap in flight, and nothing replicates any
		// more: only reopening the replica gets it a whole snapshot.
		return torn
	}
	db.lockAllShards()
	// Applied-beyond-watermark records can sit above Completed(): seed
	// above ALL of them so freshly issued timestamps never collide.
	seed := r.applied.Load()
	if c := db.oracle.Completed(); c > seed {
		seed = c
	}
	db.oracle.Seed(seed)
	// Allocator only: pinned OLAP readers still depend on the
	// visibility logs rebuildDerived would collapse.
	for _, t := range db.liveTables() {
		t.rebuildAllocator()
	}
	db.unlockAllShards()
	db.promoted.Store(true)
	db.tel.rec.Record(telemetry.EvReplPromote, int64(seed), int64(requireTS), 0)
	return nil
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
		if err == nil && welcome.Snapshot {
			// The snapshot bytes never touch the replica's own WAL:
			// checkpoint so a restart recovers them instead of
			// re-bootstrapping. Fatal at Open, unlike on reconnect — the
			// caller asked for a durable replica it does not have.
			if err = r.runBootstrap(c); err == nil && db.wal != nil {
				err = db.Checkpoint()
			}
			if err != nil {
				_ = c.Close()
			}
		}
		if err != nil {
			close(r.done)
			return err
		}
		r.setConn(c)
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
