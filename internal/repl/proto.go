// Package repl is the replication and serving transport of AnKerDB: a
// minimal length-prefixed framed protocol over which a primary streams
// durable WAL record payloads (plus a snapshot bootstrap) to read
// replicas, and clients run remote sessions — and the publisher that
// feeds every replica stream in commit order.
//
// Wire format. Every message is one frame:
//
//	[len u32][crc32 u32][type u8][payload]
//
// len counts the body (type byte + payload), crc32 (IEEE) covers the
// body, both little-endian — the same torn-tail-tolerant framing the
// WAL segments use, so a half-written frame is detected, never
// misparsed. Payloads use the one encoding idiom of the module
// (internal/binenc: fixed-width little-endian integers, u32-length-
// prefixed strings, a bounds-checked cursor on the way in):
// replication record types (MsgCommit, MsgLoad, MsgSchema) carry WAL
// record payloads verbatim — the replica replays exactly the bytes the
// primary made durable — snapshot chunks (MsgSnapChunk) carry
// consecutive slices of the checkpoint format's table sections
// (internal/wal/checkpoint.go), and the control messages have the
// fixed layouts below. Session requests and
// responses (MsgRequest, MsgResponse) are op-tagged layouts owned by
// the root package, built from the same primitives.
//
//	Hello      [version u8][role str][namespace str][afterTS u64]
//	Welcome    [snapshot u8][ts u64]
//	SnapBegin  [ts u64][tables u32]
//	SnapEnd    [ts u64]
//	Heartbeat  [watermark u64]
//	Ack        [appliedTS u64]
//	WireErr    [code u8][msg str]
//
// No decoder trusts a length prefix with memory, and anything malformed
// — short, long, wrong version — is an ErrBadFrame, never a panic.
//
// The package deliberately knows nothing about the engine: it moves
// frames and orders records. The root package owns applying them.
package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"ankerdb/internal/binenc"
)

// MsgType tags a frame's body.
type MsgType uint8

// Frame types.
const (
	// MsgHello opens a connection: Hello, sent by the client (session
	// or replica) as its first frame.
	MsgHello MsgType = 1
	// MsgWelcome accepts a hello: Welcome, the server's first frame.
	MsgWelcome MsgType = 2
	// MsgSchema carries one schema-log record payload (table creation,
	// index DDL or table DDL) in WAL encoding.
	MsgSchema MsgType = 3
	// MsgSnapBegin opens a snapshot bootstrap: SnapBegin.
	MsgSnapBegin MsgType = 4
	// MsgSnapChunk carries the next bounded slice of the snapshot body:
	// the announced tables' checkpoint sections, concatenated and cut
	// into frames without regard to section boundaries.
	MsgSnapChunk MsgType = 5
	// MsgSnapEnd closes a snapshot bootstrap: SnapEnd.
	MsgSnapEnd MsgType = 6
	// MsgCommit carries one commit record payload in WAL encoding.
	MsgCommit MsgType = 7
	// MsgLoad carries one bulk-load chunk record payload in WAL encoding.
	MsgLoad MsgType = 8
	// MsgHeartbeat carries the primary's completion watermark:
	// Heartbeat. The stream is ordered so that every record with a
	// commit timestamp at or below the watermark precedes the heartbeat
	// — a replica that applied everything before it may publish the
	// watermark to its readers.
	MsgHeartbeat MsgType = 9
	// MsgAck reports a replica's applied watermark upstream: Ack.
	MsgAck MsgType = 10
	// MsgRequest/MsgResponse carry one session operation and its result
	// (request/response layouts owned by the root package).
	MsgRequest  MsgType = 11
	MsgResponse MsgType = 12
	// MsgErr carries a fatal connection error: WireErr, after which the
	// sender closes.
	MsgErr MsgType = 13
)

// ProtoVersion is the wire protocol version a Hello announces. A server
// refuses any other value with a MsgErr, so a peer speaking another
// encoding is turned away cleanly instead of misparsed. Version 2
// replaced the one-frame-per-table snapshot body (an O(table) frame)
// with the chunked checkpoint-format body; version 3 replaced the
// session Stats body's gob blob with a binenc.Struct walk.
const ProtoVersion = 3

// ErrBadFrame is the error every malformed frame or message body
// matches: a length out of range, a checksum mismatch, a truncated or
// over-long body, an unknown protocol version.
var ErrBadFrame = errors.New("repl: malformed frame")

// Message is a frame body with a fixed binary layout, stated once as
// the field visits of Wire and walked in either direction. Wire reports
// semantically malformed input through x.Fail.
type Message interface {
	Wire(x binenc.Codec)
}

// Decode parses one frame payload into m. Truncated input, trailing
// bytes and semantic defects all return an error matching ErrBadFrame.
func Decode(payload []byte, m Message) error {
	d := binenc.Decoder{B: payload}
	m.Wire(binenc.Codec{D: &d})
	if d.Err == nil && len(d.B) != 0 {
		d.Err = fmt.Errorf("%d trailing bytes", len(d.B))
	}
	if d.Err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, d.Err)
	}
	return nil
}

// Hello opens a connection.
type Hello struct {
	Version   uint8  // ProtoVersion
	Role      string // RoleSession or RoleReplica
	Namespace string // tenant the connection addresses
	AfterTS   uint64 // replica resume point: newest applied commit TS (0 = fresh)
}

// Connection roles.
const (
	RoleSession = "session"
	RoleReplica = "replica"
)

// Wire checks the version before anything else: the rest of the layout
// is only defined for ProtoVersion.
func (h *Hello) Wire(x binenc.Codec) {
	if binenc.U8(x, &h.Version); x.D != nil && h.Version != ProtoVersion {
		x.Fail(fmt.Errorf("protocol version %d, this side speaks %d", h.Version, ProtoVersion))
		return
	}
	x.Str(&h.Role)
	x.Str(&h.Namespace)
	binenc.U64(x, &h.AfterTS)
}

// Welcome accepts a Hello.
type Welcome struct {
	// Snapshot reports whether a snapshot bootstrap (schema frames,
	// SnapBegin ... SnapEnd) precedes the live stream. False when the
	// primary can resume the replica from its retained record history.
	Snapshot bool
	// TS is the primary's completion watermark at accept time.
	TS uint64
}

func (w *Welcome) Wire(x binenc.Codec) { x.Bool(&w.Snapshot); binenc.U64(x, &w.TS) }

// SnapBegin opens a snapshot bootstrap.
type SnapBegin struct {
	TS     uint64 // snapshot timestamp: the state of every table at TS
	Tables int    // number of table sections the MsgSnapChunk frames carry
}

func (s *SnapBegin) Wire(x binenc.Codec) { binenc.U64(x, &s.TS); binenc.U32(x, &s.Tables) }

// SnapEnd closes a snapshot bootstrap; the live stream follows.
type SnapEnd struct {
	TS uint64 // equals the SnapBegin TS
}

func (s *SnapEnd) Wire(x binenc.Codec) { binenc.U64(x, &s.TS) }

// Heartbeat publishes the primary's completion watermark.
type Heartbeat struct {
	Watermark uint64
}

func (h *Heartbeat) Wire(x binenc.Codec) { binenc.U64(x, &h.Watermark) }

// Ack reports the replica's applied watermark.
type Ack struct {
	AppliedTS uint64
}

func (a *Ack) Wire(x binenc.Codec) { binenc.U64(x, &a.AppliedTS) }

// WireErr is a fatal error shipped before close. Code optionally names
// a well-known engine sentinel (table owned by the root package, 0 =
// none) so remote clients can rebuild errors.Is-able errors.
type WireErr struct {
	Msg  string
	Code uint8
}

func (e WireErr) Error() string { return e.Msg }

func (w *WireErr) Wire(x binenc.Codec) { binenc.U8(x, &w.Code); x.Str(&w.Msg) }

// maxFrameLen bounds a frame body; larger lengths mark a corrupt or
// hostile stream (matches the WAL's frame bound).
const maxFrameLen = 1 << 30

// readStep is the least ReadMsg grows its buffer by; beyond it the
// buffer only grows in proportion to bytes that have actually arrived,
// so a hostile length prefix costs one step, not the gigabyte it claims.
// keepBuf is the largest encode buffer a Conn keeps between messages
// (one huge response must not pin memory for the connection's life).
const (
	readStep = 1 << 20
	keepBuf  = 1 << 20
)

// Conn frames messages over a byte stream. Writes are buffered —
// callers batch records and Flush at stream quiescence points; the
// read side never needs flushing. A Conn serialises writers and
// readers independently, so one sender goroutine and one receiver
// goroutine can share it without locks of their own.
type Conn struct {
	c net.Conn

	rmu    sync.Mutex
	br     *bufio.Reader
	rhdr   [8]byte // header scratch (a local would escape into the reader)
	rbuf   []byte
	rlimit uint32 // largest frame body ReadMsg accepts

	wmu  sync.Mutex
	bw   *bufio.Writer
	whdr [9]byte        // header scratch, as rhdr
	enc  binenc.Encoder // reused Message encode buffer
}

// NewConn wraps c for framed messaging.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:      c,
		br:     bufio.NewReaderSize(c, 1<<16),
		bw:     bufio.NewWriterSize(c, 1<<16),
		rlimit: maxFrameLen,
	}
}

// Close closes the underlying connection (buffered writes are not
// flushed — call Flush first for a graceful close).
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds every pending and future read/write; the zero
// time clears it. Callers use it to bound a bounded exchange (a
// handshake, a bootstrap frame) so a stalled peer produces an error
// instead of a hang.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// SetReadDeadline bounds every pending and future read; the zero time
// clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// SetReadLimit lowers the largest frame body ReadMsg accepts to n
// bytes; a longer frame fails with ErrBadFrame before any of its body
// is buffered. The side that only ever receives small frames (a
// server reading hellos, requests and acks) sets it.
func (c *Conn) SetReadLimit(n uint32) {
	c.rmu.Lock()
	c.rlimit = min(n, maxFrameLen)
	c.rmu.Unlock()
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// WriteMsg appends one frame to the write buffer.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeMsgLocked(t, payload)
}

func (c *Conn) writeMsgLocked(t MsgType, payload []byte) error {
	if len(payload)+1 > maxFrameLen {
		return fmt.Errorf("repl: frame body %d bytes exceeds limit", len(payload)+1)
	}
	hdr := &c.whdr
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)+1))
	hdr[8] = byte(t)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[8:9]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// Flush pushes buffered frames to the wire.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// Send writes one frame and flushes — the request/response pattern.
func (c *Conn) Send(t MsgType, payload []byte) error {
	if err := c.WriteMsg(t, payload); err != nil {
		return err
	}
	return c.Flush()
}

// WriteBody encodes m into the connection's reused buffer and appends
// it as one buffered frame (no flush).
func (c *Conn) WriteBody(t MsgType, m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.enc.B = c.enc.B[:0]
	m.Wire(binenc.Codec{E: &c.enc})
	err := c.writeMsgLocked(t, c.enc.B)
	if cap(c.enc.B) > keepBuf {
		c.enc.B = nil
	}
	return err
}

// SendBody encodes m into one frame and flushes.
func (c *Conn) SendBody(t MsgType, m Message) error {
	if err := c.WriteBody(t, m); err != nil {
		return err
	}
	return c.Flush()
}

// SendErr ships a WireErr frame (best-effort) so the peer sees why the
// connection is about to close.
func (c *Conn) SendErr(msg string) {
	_ = c.SendBody(MsgErr, &WireErr{Msg: msg})
}

// ReadMsg reads the next frame. The returned payload is only valid
// until the next ReadMsg call. A bad length or checksum returns an
// ErrBadFrame — the stream cannot be trusted past it. The length
// prefix is never trusted with memory: the buffer grows only as the
// body actually arrives.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	hdr := &c.rhdr
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > c.rlimit {
		return 0, nil, fmt.Errorf("%w: body length %d outside 1..%d", ErrBadFrame, n, c.rlimit)
	}
	body := c.rbuf[:0]
	for len(body) < int(n) {
		have := len(body)
		if have == cap(body) {
			// Geometric, so a large honest frame (a bulk-load chunk) is
			// copied O(1) times — yet never more than 4x what arrived.
			grown := make([]byte, have, min(int(n), max(4*have, have+readStep)))
			copy(grown, body)
			body = grown
		}
		body = body[:min(int(n), cap(body))]
		if _, err := io.ReadFull(c.br, body[have:]); err != nil {
			return 0, nil, err
		}
	}
	c.rbuf = body
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return MsgType(body[0]), body[1:], nil
}

// EncodeGob serialises v as one self-describing gob blob. No frame
// uses it: it is kept only because the benchmark's repl.gob_pair_*
// kernel calls it, and goes when that kernel does.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeGob deserialises an EncodeGob blob into v (see EncodeGob for
// its one remaining caller).
func DecodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}
