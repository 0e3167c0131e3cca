package ankerdb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/repl"
)

// Server is the networked serving tier: one listener multiplexing
// remote sessions and replica WAL streams onto registered databases,
// keyed by tenant namespace. A database opened WithServeAddr owns a
// private Server with itself registered under its namespace; a
// multi-tenant process builds one with NewServer and Registers several
// databases behind one port (cmd/ankerserve).
type Server struct {
	ln net.Listener

	mu     sync.Mutex
	dbs    map[string]*DB
	conns  map[*repl.Conn]struct{}
	closed bool

	quit chan struct{}
	wg   sync.WaitGroup

	maxSessions int
	sessions    atomic.Int64
}

// defaultMaxSessions is the WithServeMaxSessions default admission cap.
const defaultMaxSessions = 256

// maxRequestFrame bounds every frame a server reads — hellos, session
// requests, replica acks are all small — so a hostile client cannot
// make the server buffer a huge body; a longer frame gets a MsgErr.
const maxRequestFrame = 1 << 20

// heartbeatEvery is how often a quiescent replica feed ships the
// completion watermark (and solicits an applied-TS ack back).
const heartbeatEvery = 100 * time.Millisecond

// NewServer listens on addr and serves sessions and replica streams
// for every database later Registered. addr may end in ":0" to pick a
// free port — read it back with Addr.
func NewServer(addr string) (*Server, error) { return newServer(addr, 0) }

func newServer(addr string, maxSessions int) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if maxSessions <= 0 {
		maxSessions = defaultMaxSessions
	}
	s := &Server{
		ln:          ln,
		dbs:         map[string]*DB{},
		conns:       map[*repl.Conn]struct{}{},
		quit:        make(chan struct{}),
		maxSessions: maxSessions,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Register serves db under namespace ns. Registering the same
// namespace again replaces the previous database (existing connections
// keep the one they resolved).
func (s *Server) Register(ns string, db *DB) {
	if ns == "" {
		ns = "default"
	}
	s.mu.Lock()
	s.dbs[ns] = db
	s.mu.Unlock()
}

// Addr returns the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every live connection and waits for
// the per-connection goroutines to drain. Registered databases are NOT
// closed — the server is a front, not an owner.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// track registers a live connection for Close-time severing; returns
// false when the server is already closing.
func (s *Server) track(c *repl.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *repl.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal: stop accepting
		}
		c := repl.NewConn(nc)
		if !s.track(c) {
			_ = c.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(c)
			defer c.Close()
			s.handle(c)
		}()
	}
}

// handle runs one connection: hello, namespace resolution, role
// dispatch.
func (s *Server) handle(c *repl.Conn) {
	c.SetReadLimit(maxRequestFrame)
	typ, payload, err := c.ReadMsg()
	if err != nil || typ != repl.MsgHello {
		c.SendErr("ankerdb: expected hello")
		return
	}
	var hello repl.Hello
	if err := repl.Decode(payload, &hello); err != nil {
		c.SendErr(fmt.Sprintf("ankerdb: bad hello: %v", err))
		return
	}
	ns := hello.Namespace
	if ns == "" {
		ns = "default"
	}
	s.mu.Lock()
	db := s.dbs[ns]
	s.mu.Unlock()
	if db == nil {
		c.SendErr(fmt.Sprintf("ankerdb: unknown namespace %q", ns))
		return
	}
	switch hello.Role {
	case repl.RoleReplica:
		s.serveReplica(c, db, hello)
	case repl.RoleSession:
		s.serveSession(c, db)
	default:
		c.SendErr(fmt.Sprintf("ankerdb: unknown role %q", hello.Role))
	}
}

// serveReplica feeds one replica: attach (or resume) a publisher
// subscriber FIRST, then bootstrap if needed, then pump released
// records, batched between flushes, with watermark heartbeats on
// quiescence. An ack-reader goroutine folds the replica's applied
// watermark into the primary's lag telemetry.
func (s *Server) serveReplica(c *repl.Conn, db *DB, hello repl.Hello) {
	if db.pub == nil {
		c.SendErr("ankerdb: replication requires durability on the primary")
		return
	}
	var sub *repl.Subscriber
	snapshot := true
	if hello.AfterTS > 0 {
		if rs, ok := db.pub.Resume(hello.AfterTS, replicaSendBuf); ok {
			sub, snapshot = rs, false
		}
	}
	if sub == nil {
		// Attach before the snapshot capture: records released during
		// the capture duplicate into it (harmless, idempotent replay);
		// the reverse order would lose them.
		sub = db.pub.Attach(replicaSendBuf)
	}
	defer db.pub.Detach(sub)
	if err := c.SendBody(repl.MsgWelcome, &repl.Welcome{Snapshot: snapshot, TS: db.oracle.Completed()}); err != nil {
		return
	}
	if snapshot {
		if err := db.streamBootstrap(c); err != nil {
			c.SendErr(fmt.Sprintf("ankerdb: bootstrap failed: %v", err))
			return
		}
	}

	peer := &replPeer{}
	peer.acked.Store(hello.AfterTS)
	db.addPeer(peer)
	defer db.removePeer(peer)

	// Ack reader: the only frames a replica sends after hello are acks.
	// Its read error also serves as the disconnect signal.
	readErr := make(chan struct{})
	go func() {
		defer close(readErr)
		for {
			typ, payload, err := c.ReadMsg()
			if err != nil {
				return
			}
			if typ != repl.MsgAck {
				continue
			}
			var ack repl.Ack
			if err := repl.Decode(payload, &ack); err != nil {
				return
			}
			db.noteAck(peer, ack.AppliedTS)
		}
	}()

	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-readErr:
			return
		case rec, ok := <-sub.C:
			if !ok {
				if sub.Lost() {
					c.SendErr("ankerdb: replica fell behind the stream buffer; reconnect to re-bootstrap")
				}
				return
			}
			if err := s.writeRecord(c, rec); err != nil {
				return
			}
			// Drain whatever already queued behind it, then flush once.
			if !s.drainSub(c, sub) {
				return
			}
			if err := c.Flush(); err != nil {
				return
			}
		case <-hb.C:
			// Watermark first, drain second: the published watermark only
			// covers records already released to this subscriber's buffer,
			// so once the drain has written them the heartbeat may follow.
			// Reading the watermark after (or instead of) draining could
			// announce W while records with TS <= W still sit unread in
			// sub.C — the replica would ObserveCommitted(W) before applying
			// them, serving torn snapshots and acking a watermark it never
			// applied through.
			w := db.pub.Watermark()
			if !s.drainSub(c, sub) {
				return
			}
			if err := c.WriteBody(repl.MsgHeartbeat, &repl.Heartbeat{Watermark: w}); err != nil {
				return
			}
			if err := c.Flush(); err != nil {
				return
			}
		}
	}
}

// drainSub writes every record already buffered in sub.C without
// blocking (no flush). Returns false when the connection must close: a
// write failed, or the channel closed (overflow is reported to the
// peer before returning).
func (s *Server) drainSub(c *repl.Conn, sub *repl.Subscriber) bool {
	for {
		select {
		case rec, ok := <-sub.C:
			if !ok {
				if sub.Lost() {
					c.SendErr("ankerdb: replica fell behind the stream buffer; reconnect to re-bootstrap")
				}
				return false
			}
			if err := s.writeRecord(c, rec); err != nil {
				return false
			}
		default:
			return true
		}
	}
}

// writeRecord buffers one published record as its stream frame.
// Heartbeat records (in-band watermarks from Resume replays and
// Advance) become heartbeat frames.
func (s *Server) writeRecord(c *repl.Conn, rec repl.Record) error {
	if rec.Type == repl.MsgHeartbeat {
		return c.WriteBody(repl.MsgHeartbeat, &repl.Heartbeat{Watermark: rec.TS})
	}
	return c.WriteMsg(rec.Type, rec.Payload)
}

// serveSession runs one remote session: admission, welcome, then a
// request/response loop over the session's transactions. Transactions
// left open when the connection dies are aborted (OLTP) or released
// (OLAP snapshot pins).
func (s *Server) serveSession(c *repl.Conn, db *DB) {
	if n := s.sessions.Add(1); n > int64(s.maxSessions) {
		s.sessions.Add(-1)
		_ = c.SendBody(repl.MsgErr, &repl.WireErr{Msg: ErrTooManySessions.Error(), Code: errToWire(ErrTooManySessions)})
		return
	}
	defer s.sessions.Add(-1)
	if err := c.SendBody(repl.MsgWelcome, &repl.Welcome{TS: db.oracle.Completed()}); err != nil {
		return
	}
	txns := map[uint64]*Txn{}
	defer func() {
		for _, t := range txns {
			_ = t.Abort()
		}
	}()
	var nextTxn uint64
	var req wireReq   // one request and one response, reused for the
	var resp wireResp // whole session (they escape into the codec)
	for {
		typ, payload, err := c.ReadMsg()
		if err != nil {
			if errors.Is(err, repl.ErrBadFrame) {
				c.SendErr("ankerdb: " + err.Error())
			}
			return
		}
		if typ != repl.MsgRequest {
			c.SendErr(fmt.Sprintf("ankerdb: unexpected frame type %d in session", typ))
			return
		}
		req = wireReq{}
		if err := repl.Decode(payload, &req); err != nil {
			c.SendErr("ankerdb: bad request: " + err.Error())
			return
		}
		resp, err = serveReq(db, txns, &nextTxn, &req)
		resp.Op = req.Op
		if err != nil {
			resp = wireResp{Op: opErr, Err: errToWire(err), Msg: err.Error()}
		}
		if err := c.SendBody(repl.MsgResponse, &resp); err != nil {
			return
		}
	}
}

// serveReq executes one session request against the engine, returning
// the op's result fields or the engine's error.
func serveReq(db *DB, txns map[uint64]*Txn, nextTxn *uint64, req *wireReq) (wireResp, error) {
	switch req.Op {
	case opBegin:
		t, err := db.Begin(req.Class)
		if err != nil {
			return wireResp{}, err
		}
		*nextTxn++
		txns[*nextTxn] = t
		return wireResp{Txn: *nextTxn, TS: t.SnapshotTS()}, nil
	case opStats:
		st := db.Stats()
		return wireResp{Stats: &st}, nil
	}
	t := txns[req.Txn]
	if t == nil {
		return wireResp{}, ErrTxnDone
	}
	switch req.Op {
	case opCommit:
		delete(txns, req.Txn)
		return wireResp{}, t.Commit()
	case opAbort:
		delete(txns, req.Txn)
		return wireResp{}, t.Abort()
	case opGet:
		v, err := t.Get(req.Tab, req.Col, req.Row)
		return wireResp{Val: v}, err
	case opGetString:
		s, err := t.GetString(req.Tab, req.Col, req.Row)
		return wireResp{Str: s}, err
	case opScan:
		vals, err := t.Scan(req.Tab, req.Col)
		return wireResp{Vals: vals}, err
	case opLookup:
		rows, err := t.Lookup(req.Tab, req.Col, req.Val)
		return wireResp{Rows: rows}, err
	case opFilter:
		rows, err := t.Filter(req.Tab, req.Col, req.Lo, req.Hi)
		return wireResp{Rows: rows}, err
	case opAggregate:
		v, err := t.Aggregate(req.Tab, req.Col, req.Agg)
		return wireResp{Val: v}, err
	case opSet:
		return wireResp{}, t.Set(req.Tab, req.Col, req.Row, req.Val)
	case opSetString:
		return wireResp{}, t.SetString(req.Tab, req.Col, req.Row, req.Str)
	case opInsert:
		vals := make(map[string]any, len(req.Ins))
		for _, v := range req.Ins {
			if v.IsStr {
				vals[v.Name] = v.Str
			} else {
				vals[v.Name] = v.Val
			}
		}
		row, err := t.Insert(req.Tab, vals)
		return wireResp{Row: row}, err
	case opDelete:
		return wireResp{}, t.Delete(req.Tab, req.Row)
	default:
		return wireResp{}, fmt.Errorf("ankerdb: unknown session op %d", req.Op)
	}
}
