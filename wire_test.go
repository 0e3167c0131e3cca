package ankerdb

// Tests for the binary session codec (wireReq/wireResp in client.go)
// and the server's handling of frames it must refuse: round-trip
// properties over every op, fuzz targets asserting that garbage yields
// a typed error and bounded allocation, and raw-socket probes of the
// version check and the request size limit.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"ankerdb/internal/binenc"
	"ankerdb/internal/repl"
)

func encodeMsg(m repl.Message) []byte {
	var e binenc.Encoder
	m.Wire(binenc.Codec{E: &e})
	return e.B
}

// wireReqCorpus covers every request op, with the awkward values: empty
// and non-UTF-8 strings, extreme integers, empty and mixed Insert lists.
func wireReqCorpus() []wireReq {
	bad := "\xff\xfe\x00tab"
	return []wireReq{
		{Op: opBegin, Class: OLAP},
		{Op: opBegin, Class: OLTP},
		{Op: opCommit, Txn: math.MaxUint64},
		{Op: opAbort, Txn: 7},
		{Op: opStats},
		{Op: opGet, Txn: 1, Tab: "t", Col: "c", Row: math.MaxInt},
		{Op: opGet, Txn: 1, Tab: "", Col: "", Row: -1},
		{Op: opGetString, Txn: 2, Tab: bad, Col: bad, Row: 0},
		{Op: opScan, Txn: 3, Tab: "t", Col: "c"},
		{Op: opLookup, Txn: 3, Tab: "t", Col: "c", Val: math.MinInt64},
		{Op: opFilter, Txn: 3, Tab: "t", Col: "c", Lo: math.MinInt64, Hi: math.MaxInt64},
		{Op: opAggregate, Txn: 3, Tab: "t", Col: "c", Agg: Max},
		{Op: opSet, Txn: 4, Tab: "t", Col: "c", Row: 5, Val: -5},
		{Op: opSetString, Txn: 4, Tab: "t", Col: "c", Row: 5, Str: bad},
		{Op: opSetString, Txn: 4, Tab: "t", Col: "c", Row: 5, Str: ""},
		{Op: opInsert, Txn: 5, Tab: "t", Ins: []insertVal{}},
		{Op: opInsert, Txn: 5, Tab: "t", Ins: []insertVal{
			{Name: "a", Val: math.MinInt64},
			{Name: bad, IsStr: true, Str: bad},
			{Name: "", IsStr: true, Str: ""},
		}},
		{Op: opDelete, Txn: 6, Tab: "t", Row: math.MaxInt},
	}
}

func wireRespCorpus() []wireResp {
	return []wireResp{
		{Op: opErr, Err: 4, Msg: "ankerdb: conflict"},
		{Op: opErr, Msg: "no sentinel \xff"},
		{Op: opBegin, Txn: 9, TS: math.MaxUint64},
		{Op: opCommit}, {Op: opAbort}, {Op: opSet}, {Op: opSetString}, {Op: opDelete},
		{Op: opGet, Val: math.MinInt64},
		{Op: opAggregate, Val: math.MaxInt64},
		{Op: opGetString, Str: "\xc3\x28"},
		{Op: opGetString, Str: ""},
		{Op: opInsert, Row: math.MaxInt},
		{Op: opScan},
		{Op: opScan, Vals: []int64{0, -1, math.MaxInt64, math.MinInt64}},
		{Op: opLookup},
		{Op: opLookup, Rows: []int{0, math.MaxInt}},
		{Op: opFilter, Rows: []int{1, 2, 3}},
		{Op: opStats, Stats: &Stats{}},
		{Op: opStats, Stats: distinctStats()},
	}
}

// distinctStats returns a Stats whose every exported leaf holds its own
// non-zero value: signed integers negative, strings non-UTF-8.
func distinctStats() *Stats {
	var s Stats
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(fmt.Sprintf("\xff%d", n))
		case reflect.Int, reflect.Int64:
			v.SetInt(-int64(n) << 40)
		case reflect.Uint64:
			v.SetUint(uint64(n)<<40 | uint64(n))
		default:
			panic("distinctStats: unhandled leaf " + v.Type().String())
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	return &s
}

// TestStatsBodyRoundTrip: the opStats body carries every leaf of Stats
// (decode∘encode is the identity), and a body cut short or carrying
// another leaf count is ErrBadFrame.
func TestStatsBodyRoundTrip(t *testing.T) {
	want := wireResp{Op: opStats, Stats: distinctStats()}
	body := encodeMsg(&want)
	var got wireResp
	if err := repl.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got.Stats, *want.Stats) {
		t.Fatalf("decoded %+v\nwant %+v", *got.Stats, *want.Stats)
	}
	for _, bad := range [][]byte{
		body[:len(body)-1],
		body[:5],
		append([]byte{opStats, body[1] + 1}, body[2:]...), // leaf count off by one
	} {
		if err := repl.Decode(bad, &wireResp{}); !errors.Is(err, repl.ErrBadFrame) {
			t.Fatalf("%d-byte body: err %v, want ErrBadFrame", len(bad), err)
		}
	}
}

func TestWireReqRoundTrip(t *testing.T) {
	for _, want := range wireReqCorpus() {
		var got wireReq
		if err := repl.Decode(encodeMsg(&want), &got); err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if len(want.Ins) == 0 {
			want.Ins, got.Ins = nil, nil // empty and nil lists are one wire value
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: decoded %+v, want %+v", want.Op, got, want)
		}
	}
}

func TestWireRespRoundTrip(t *testing.T) {
	for _, want := range wireRespCorpus() {
		var got wireResp
		if err := repl.Decode(encodeMsg(&want), &got); err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: decoded %+v, want %+v", want.Op, got, want)
		}
	}
	// Empty slices travel as a zero count and come back nil, as the
	// engine's own empty results do.
	var got wireResp
	if err := repl.Decode(encodeMsg(&wireResp{Op: opScan, Vals: []int64{}}), &got); err != nil || got.Vals != nil {
		t.Fatalf("empty Vals: %+v, %v", got, err)
	}
	if n := len(encodeMsg(&wireResp{Op: opSet})); n != 1 {
		t.Fatalf("an OK response body is %d bytes, want 1", n)
	}
}

// checkWireDecode is the fuzz property shared by both directions:
// decoding arbitrary bytes never panics, fails only with ErrBadFrame,
// and a value that decodes survives an encode/decode cycle unchanged.
func checkWireDecode(t *testing.T, data []byte, got, again repl.Message) {
	t.Helper()
	if err := repl.Decode(data, got); err != nil {
		if !errors.Is(err, repl.ErrBadFrame) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	if err := repl.Decode(encodeMsg(got), again); err != nil {
		t.Fatalf("re-decode of an accepted message: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("re-decoded %+v, first decode %+v", again, got)
	}
}

func FuzzWireReq(f *testing.F) {
	for _, r := range wireReqCorpus() {
		f.Add(encodeMsg(&r))
	}
	f.Add([]byte{opInsert, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 4G values claimed
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, again wireReq
		checkWireDecode(t, data, &got, &again)
		// Allocation follows the bytes present, not the count prefix.
		if len(got.Ins)*9 > len(data) {
			t.Fatalf("%d insert values decoded from %d bytes", len(got.Ins), len(data))
		}
	})
}

func FuzzWireResp(f *testing.F) {
	for _, r := range wireRespCorpus() {
		f.Add(encodeMsg(&r))
	}
	f.Add([]byte{opScan, 0xff, 0xff, 0xff, 0x7f})  // 2G values claimed
	f.Add([]byte{opStats, 0xff, 0xff, 0xff, 0xff}) // 4G Stats leaves claimed
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, again wireResp
		checkWireDecode(t, data, &got, &again)
		if (len(got.Rows)+len(got.Vals))*8 > len(data) {
			t.Fatalf("%d rows + %d vals decoded from %d bytes", len(got.Rows), len(got.Vals), len(data))
		}
	})
}

// rawDial opens a framed connection to a serving database without the
// client's handshake, for sending what Dial never would.
func rawDial(t *testing.T, addr string) (*repl.Conn, net.Conn) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := repl.NewConn(nc)
	t.Cleanup(func() { _ = c.Close() })
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, nc
}

// wantWireErr reads the next frame and requires a MsgErr mentioning sub.
func wantWireErr(t *testing.T, c *repl.Conn, sub string) {
	t.Helper()
	typ, payload, err := c.ReadMsg()
	if err != nil || typ != repl.MsgErr {
		t.Fatalf("want MsgErr, got type %d, err %v", typ, err)
	}
	var we repl.WireErr
	if err := repl.Decode(payload, &we); err != nil || !strings.Contains(we.Msg, sub) {
		t.Fatalf("MsgErr %q (decode err %v), want mention of %q", we.Msg, err, sub)
	}
}

// TestServerRefusesOtherProtocolVersions: a peer announcing another
// version, or an old client whose hello is a gob stream, is turned away
// with a readable MsgErr instead of being misparsed.
func TestServerRefusesOtherProtocolVersions(t *testing.T) {
	db := openPrimary(t)
	c, _ := rawDial(t, db.ServeAddr())
	if err := c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion + 1, Role: repl.RoleSession}); err != nil {
		t.Fatal(err)
	}
	wantWireErr(t, c, "protocol version")

	type gobHello struct {
		Role      string
		Namespace string
		AfterTS   uint64
	}
	old, err := repl.EncodeGob(gobHello{Role: repl.RoleSession, Namespace: "default"})
	if err != nil {
		t.Fatal(err)
	}
	c, _ = rawDial(t, db.ServeAddr())
	if err := c.Send(repl.MsgHello, old); err != nil {
		t.Fatal(err)
	}
	wantWireErr(t, c, "bad hello")
}

// TestServerBoundsRequestFrames: a session frame over the request limit
// is refused from its 8-byte header alone — the server answers MsgErr
// without waiting for (or buffering) the body the length claims.
func TestServerBoundsRequestFrames(t *testing.T) {
	db := openPrimary(t)
	c, nc := rawDial(t, db.ServeAddr())
	if err := c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion, Role: repl.RoleSession}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.ReadMsg(); err != nil || typ != repl.MsgWelcome {
		t.Fatalf("handshake: type %d, err %v", typ, err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], maxRequestFrame+1)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(nil))
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	wantWireErr(t, c, "body length")

	// A request that decodes short of (or past) its frame is refused too.
	s, err := Dial(db.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.conn.Send(repl.MsgRequest, []byte{opGet, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	wantWireErr(t, s.conn, "bad request")
}

var wireSink int

// BenchmarkWireCodecPair is one request and one response through the
// session codec — encode into a reused buffer, decode — the per-op
// codec cost of the remote path (a Set and its one-byte OK, the most
// common pair of a write transaction).
func BenchmarkWireCodecPair(b *testing.B) {
	req := wireReq{Op: opSet, Txn: 42, Tab: "acct", Col: "c3", Row: 12345, Val: -99}
	resp := wireResp{Op: opSet}
	var e binenc.Encoder
	var gotReq wireReq
	var gotResp wireResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.B = e.B[:0]
		req.Wire(binenc.Codec{E: &e})
		gotReq = wireReq{}
		if err := repl.Decode(e.B, &gotReq); err != nil {
			b.Fatal(err)
		}
		n := len(e.B)
		resp.Wire(binenc.Codec{E: &e})
		if err := repl.Decode(e.B[n:], &gotResp); err != nil {
			b.Fatal(err)
		}
		wireSink += gotReq.Row + int(gotResp.Op)
	}
}
