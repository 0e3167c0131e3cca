package ankerdb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ankerdb/internal/binenc"
	"ankerdb/internal/repl"
)

// Remote session wire schema: one request frame and one response frame
// per SessionTxn operation, single in-flight per connection (the
// engine's session operations are synchronous anyway), in the module's
// one binary idiom (internal/binenc). Both layouts are op-tagged: the
// leading op byte selects the fields that follow — the visits of
// wireReq.Wire and wireResp.Wire below, tabulated in README
// "Replication & serving". Engine sentinel errors cross the wire as
// wireSentinels codes, so errors.Is works as against an embedded DB.

// Session op codes. opErr tags a failure response, never a request.
const (
	opErr uint8 = iota
	opBegin
	opCommit
	opAbort
	opGet
	opGetString
	opScan
	opLookup
	opFilter
	opAggregate
	opSet
	opSetString
	opInsert
	opDelete
	opStats
)

// insertVal is one column value of an Insert, flattened from the
// map[string]any: an int64 or (IsStr) a string.
type insertVal struct {
	Name  string
	IsStr bool
	Val   int64
	Str   string
}

// wireReq is one session request (payload of MsgRequest).
type wireReq struct {
	Op    uint8
	Txn   uint64 // server-issued transaction handle (0 for Begin/Stats)
	Class TxnClass
	Tab   string
	Col   string
	Row   int
	Val   int64
	Str   string
	Lo    int64
	Hi    int64
	Agg   Agg
	Ins   []insertVal
}

func (r *wireReq) Wire(x binenc.Codec) {
	binenc.U8(x, &r.Op)
	binenc.U64(x, &r.Txn)
	switch r.Op {
	case opBegin:
		binenc.U8(x, &r.Class)
	case opCommit, opAbort, opStats:
	case opDelete:
		x.Str(&r.Tab)
		binenc.U64(x, &r.Row)
	case opInsert:
		x.Str(&r.Tab)
		// A value takes at least name length + kind + string length.
		if n := x.Len(len(r.Ins), 9); x.D != nil {
			r.Ins = make([]insertVal, n)
		}
		for i := range r.Ins {
			v := &r.Ins[i]
			x.Str(&v.Name)
			if x.Bool(&v.IsStr); v.IsStr {
				x.Str(&v.Str)
			} else {
				binenc.U64(x, &v.Val)
			}
		}
	case opGet, opGetString, opScan, opLookup, opFilter, opAggregate, opSet, opSetString:
		x.Str(&r.Tab)
		x.Str(&r.Col)
		switch r.Op {
		case opGet, opGetString:
			binenc.U64(x, &r.Row)
		case opLookup:
			binenc.U64(x, &r.Val)
		case opFilter:
			binenc.U64(x, &r.Lo)
			binenc.U64(x, &r.Hi)
		case opAggregate:
			binenc.U8(x, &r.Agg)
		case opSet:
			binenc.U64(x, &r.Row)
			binenc.U64(x, &r.Val)
		case opSetString:
			binenc.U64(x, &r.Row)
			x.Str(&r.Str)
		}
	default:
		x.Fail(fmt.Errorf("unknown session op %d", r.Op))
	}
}

// wireResp is one session response (payload of MsgResponse). Op echoes
// the request's op; opErr marks a failure carrying Err and Msg. An OK
// with no result is the op byte alone.
type wireResp struct {
	Op    uint8
	Err   uint8  // wireSentinels index; 0 = no sentinel
	Msg   string // full error text
	Txn   uint64 // Begin: transaction handle
	TS    uint64 // Begin: snapshot timestamp
	Val   int64
	Str   string
	Row   int
	Rows  []int
	Vals  []int64
	Stats *Stats // Stats: every exported leaf, binenc.Struct
}

func (r *wireResp) Wire(x binenc.Codec) {
	binenc.U8(x, &r.Op)
	switch r.Op {
	case opErr:
		binenc.U8(x, &r.Err)
		x.Str(&r.Msg)
	case opBegin:
		binenc.U64(x, &r.Txn)
		binenc.U64(x, &r.TS)
	case opGet, opAggregate:
		binenc.U64(x, &r.Val)
	case opGetString:
		x.Str(&r.Str)
	case opInsert:
		binenc.U64(x, &r.Row)
	case opLookup, opFilter:
		wireInts(x, &r.Rows)
	case opScan:
		wireInts(x, &r.Vals)
	case opStats:
		if x.D != nil {
			r.Stats = new(Stats)
		}
		binenc.Struct(x, r.Stats)
	case opCommit, opAbort, opSet, opSetString, opDelete:
	default:
		x.Fail(fmt.Errorf("unknown session op %d", r.Op))
	}
}

// wireInts visits a list of 8-byte integers: [n u32] n x [u64]. An
// empty list decodes as nil, as the engine's own empty results are.
func wireInts[T int | int64](x binenc.Codec, p *[]T) {
	if n := x.Len(len(*p), 8); x.D != nil && n > 0 {
		*p = make([]T, n)
	}
	for i := range *p {
		binenc.U64(x, &(*p)[i])
	}
}

// wireSentinels maps wire error codes to engine sentinels, so a remote
// caller's errors.Is checks behave exactly like an embedded one's.
// Index 0 is reserved for "no sentinel" — the remote error then only
// carries its message. Append-only: codes are wire format.
var wireSentinels = []error{
	nil,
	ErrClosed,
	ErrTxnDone,
	ErrReadOnly,
	ErrConflict,
	ErrNoSuchTable,
	ErrNoSuchColumn,
	ErrRowRange,
	ErrRowNotVisible,
	ErrTableExists,
	ErrType,
	ErrNotOLAP,
	ErrReplicaRead,
	ErrTooManySessions,
}

// errToWire finds the sentinel code for err (0 when none matches).
// ErrRowNotVisible is checked before ErrRowRange: the visibility error
// matches both under errors.Is and must keep its more specific code.
func errToWire(err error) uint8 {
	if errors.Is(err, ErrRowNotVisible) {
		for i, s := range wireSentinels {
			if s == ErrRowNotVisible {
				return uint8(i)
			}
		}
	}
	for i, s := range wireSentinels {
		if s != nil && errors.Is(err, s) {
			return uint8(i)
		}
	}
	return 0
}

// remoteError reconstructs a server-side error client-side: the full
// message, errors.Is-matching the coded sentinel (and, via the
// sentinel table order, ErrRowNotVisible's ErrRowRange aliasing).
type remoteError struct {
	base error
	msg  string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Is(target error) bool {
	if e.base == nil {
		return false
	}
	if target == e.base {
		return true
	}
	// ErrRowNotVisible subsumes ErrRowRange, mirroring notVisibleError.
	return e.base == ErrRowNotVisible && target == ErrRowRange
}

func wireToErr(code uint8, msg string) error {
	var base error
	if int(code) < len(wireSentinels) {
		base = wireSentinels[code]
	}
	if base == nil && msg == "" {
		return fmt.Errorf("ankerdb: remote error")
	}
	return &remoteError{base: base, msg: msg}
}

// wireErrFrame rebuilds the error a MsgErr frame carries (best-effort:
// an undecodable frame still yields a generic remote error).
func wireErrFrame(payload []byte) error {
	var we repl.WireErr
	_ = repl.Decode(payload, &we)
	return wireToErr(we.Code, we.Msg)
}

// RemoteSession is a Session over a network connection to a served
// database (Dial). One connection, one in-flight request at a time;
// open transactions are server-side state and die with the connection.
type RemoteSession struct {
	mu     sync.Mutex
	conn   *repl.Conn
	closed bool
}

// Dial connects a remote session to a serving endpoint (WithServeAddr
// or NewServer) for the database registered under namespace ns (""
// means "default"). The returned session satisfies Session — code
// written against it runs unchanged against an embedded *DB.
func Dial(addr, ns string) (*RemoteSession, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := repl.NewConn(nc)
	if err := c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion, Role: repl.RoleSession, Namespace: ns}); err != nil {
		_ = c.Close()
		return nil, err
	}
	typ, payload, err := c.ReadMsg()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	switch typ {
	case repl.MsgWelcome:
		return &RemoteSession{conn: c}, nil
	case repl.MsgErr:
		_ = c.Close()
		return nil, wireErrFrame(payload)
	default:
		_ = c.Close()
		return nil, fmt.Errorf("ankerdb: unexpected handshake frame type %d", typ)
	}
}

// roundTrip ships one request and decodes its response, serialising
// in-flight requests (SessionTxn operations are synchronous).
func (s *RemoteSession) roundTrip(req *wireReq) (*wireResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.conn.SendBody(repl.MsgRequest, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	typ, payload, err := s.conn.ReadMsg()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	switch typ {
	case repl.MsgResponse:
		var resp wireResp
		if err := repl.Decode(payload, &resp); err != nil {
			return nil, err
		}
		if resp.Op == opErr {
			return nil, wireToErr(resp.Err, resp.Msg)
		}
		if resp.Op != req.Op {
			return nil, fmt.Errorf("%w: response to op %d, sent op %d", repl.ErrBadFrame, resp.Op, req.Op)
		}
		return &resp, nil
	case repl.MsgErr:
		return nil, wireErrFrame(payload)
	default:
		return nil, fmt.Errorf("ankerdb: unexpected response frame type %d", typ)
	}
}

// BeginTxn starts a remote transaction.
func (s *RemoteSession) BeginTxn(class TxnClass) (SessionTxn, error) {
	resp, err := s.roundTrip(&wireReq{Op: opBegin, Class: class})
	if err != nil {
		return nil, err
	}
	return &remoteTxn{s: s, id: resp.Txn, class: class, ts: resp.TS}, nil
}

// Stats fetches the served database's Stats snapshot — including the
// replication staleness fields a client bounds reads with.
func (s *RemoteSession) Stats() Stats {
	resp, err := s.roundTrip(&wireReq{Op: opStats})
	if err != nil {
		return Stats{}
	}
	return *resp.Stats
}

// Close drops the connection. Server-side, open transactions of this
// session are aborted; the database itself is untouched.
func (s *RemoteSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.conn.Close()
}

// remoteTxn is one transaction on a RemoteSession.
type remoteTxn struct {
	s     *RemoteSession
	id    uint64
	class TxnClass
	ts    uint64
	done  bool
}

func (t *remoteTxn) Class() TxnClass    { return t.class }
func (t *remoteTxn) SnapshotTS() uint64 { return t.ts }

func (t *remoteTxn) op(req *wireReq) (*wireResp, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	req.Txn = t.id
	return t.s.roundTrip(req)
}

func (t *remoteTxn) Get(tab, col string, row int) (int64, error) {
	resp, err := t.op(&wireReq{Op: opGet, Tab: tab, Col: col, Row: row})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

func (t *remoteTxn) GetString(tab, col string, row int) (string, error) {
	resp, err := t.op(&wireReq{Op: opGetString, Tab: tab, Col: col, Row: row})
	if err != nil {
		return "", err
	}
	return resp.Str, nil
}

func (t *remoteTxn) Scan(tab, col string) ([]int64, error) {
	resp, err := t.op(&wireReq{Op: opScan, Tab: tab, Col: col})
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}

func (t *remoteTxn) Lookup(tab, col string, v int64) ([]int, error) {
	resp, err := t.op(&wireReq{Op: opLookup, Tab: tab, Col: col, Val: v})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

func (t *remoteTxn) Filter(tab, col string, lo, hi int64) ([]int, error) {
	resp, err := t.op(&wireReq{Op: opFilter, Tab: tab, Col: col, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

func (t *remoteTxn) Aggregate(tab, col string, agg Agg) (int64, error) {
	resp, err := t.op(&wireReq{Op: opAggregate, Tab: tab, Col: col, Agg: agg})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

func (t *remoteTxn) Set(tab, col string, row int, v int64) error {
	_, err := t.op(&wireReq{Op: opSet, Tab: tab, Col: col, Row: row, Val: v})
	return err
}

func (t *remoteTxn) SetString(tab, col string, row int, s string) error {
	_, err := t.op(&wireReq{Op: opSetString, Tab: tab, Col: col, Row: row, Str: s})
	return err
}

// Insert flattens the value map: per column a name and an int64 or
// string payload. Engine-side type dispatch (Varchar wants string,
// everything else int64) is preserved.
func (t *remoteTxn) Insert(tab string, vals map[string]any) (int, error) {
	req := &wireReq{Op: opInsert, Tab: tab}
	for name, v := range vals {
		switch x := v.(type) {
		case int64:
			req.Ins = append(req.Ins, insertVal{Name: name, Val: x})
		case int:
			req.Ins = append(req.Ins, insertVal{Name: name, Val: int64(x)})
		case string:
			req.Ins = append(req.Ins, insertVal{Name: name, IsStr: true, Str: x})
		default:
			return 0, fmt.Errorf("%w: unsupported insert value type %T for %q", ErrType, v, name)
		}
	}
	resp, err := t.op(req)
	if err != nil {
		return 0, err
	}
	return resp.Row, nil
}

func (t *remoteTxn) Delete(tab string, row int) error {
	_, err := t.op(&wireReq{Op: opDelete, Tab: tab, Row: row})
	return err
}

func (t *remoteTxn) Commit() error {
	_, err := t.op(&wireReq{Op: opCommit})
	t.done = true
	return err
}

func (t *remoteTxn) Abort() error {
	_, err := t.op(&wireReq{Op: opAbort})
	t.done = true
	return err
}
