package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"

	"ankerdb/internal/binenc"
)

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	done := make(chan error, 1)
	go func() {
		if err := ca.WriteMsg(MsgCommit, []byte("payload-1")); err != nil {
			done <- err
			return
		}
		if err := ca.WriteMsg(MsgLoad, nil); err != nil {
			done <- err
			return
		}
		if err := ca.WriteBody(MsgHeartbeat, &Heartbeat{Watermark: 42}); err != nil {
			done <- err
			return
		}
		done <- ca.Flush()
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgCommit || string(payload) != "payload-1" {
		t.Fatalf("frame 1: type=%d payload=%q err=%v", typ, payload, err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgLoad || len(payload) != 0 {
		t.Fatalf("frame 2: type=%d payload=%q err=%v", typ, payload, err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgHeartbeat {
		t.Fatalf("frame 3: type=%d err=%v", typ, err)
	}
	var hb Heartbeat
	if err := Decode(payload, &hb); err != nil || hb.Watermark != 42 {
		t.Fatalf("heartbeat decode: %+v err=%v", hb, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	a, b := net.Pipe()
	cb := NewConn(b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	go func() {
		// Hand-build a frame whose CRC does not match its body.
		body := []byte{byte(MsgCommit), 'x', 'y'}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
		binary.LittleEndian.PutUint32(hdr[4:], 0xdeadbeef)
		_, _ = a.Write(hdr[:])
		_, _ = a.Write(body)
	}()
	if _, _, err := cb.ReadMsg(); err == nil {
		t.Fatalf("corrupt frame accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		_ = ca.SendBody(MsgHello, &Hello{Version: ProtoVersion, Role: RoleReplica, Namespace: "tenant-a", AfterTS: 7})
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgHello {
		t.Fatalf("type=%d err=%v", typ, err)
	}
	var h Hello
	if err := Decode(payload, &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != RoleReplica || h.Namespace != "tenant-a" || h.AfterTS != 7 {
		t.Fatalf("hello: %+v", h)
	}
}

// collect drains everything currently buffered in the subscriber.
func collect(s *Subscriber) []Record {
	var out []Record
	for {
		select {
		case rec, ok := <-s.C:
			if !ok {
				return out
			}
			out = append(out, rec)
		default:
			return out
		}
	}
}

func TestPublisherHoldsUntilWatermark(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 5, Type: MsgCommit, Payload: []byte("c5")})
	p.Stage(Record{TS: 6, Type: MsgCommit, Payload: []byte("c6")})
	if got := collect(s); len(got) != 0 {
		t.Fatalf("records released before watermark: %d", len(got))
	}
	p.Advance(5)
	got := collect(s)
	if len(got) != 2 || got[0].TS != 5 || got[1].Type != MsgHeartbeat || got[1].TS != 5 {
		t.Fatalf("after advance(5): %+v", got)
	}
	p.Advance(6)
	got = collect(s)
	if len(got) != 2 || got[0].TS != 6 || got[1].Type != MsgHeartbeat || got[1].TS != 6 {
		t.Fatalf("after advance(6): %+v", got)
	}
	if p.Watermark() != 6 {
		t.Fatalf("watermark = %d", p.Watermark())
	}
}

func TestPublisherFIFOAcrossShards(t *testing.T) {
	// Shard A's batch [10..11] is staged (appended) before shard B's
	// [5..6]: release order must follow stage order once the watermark
	// covers both, and the heartbeat must come last.
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 10, Type: MsgCommit})
	p.Stage(Record{TS: 11, Type: MsgCommit})
	p.Stage(Record{TS: 5, Type: MsgCommit})
	p.Stage(Record{TS: 6, Type: MsgCommit})
	p.Advance(9) // 5..9 completed, 10.. not yet: nothing releasable at the head
	for _, rec := range collect(s) {
		// No records may release, and any heartbeat must stay below the
		// held records' timestamps — announcing 5..9 before delivering
		// the stuck records 5 and 6 would violate the stream contract.
		if rec.Type != MsgHeartbeat || rec.TS >= 5 {
			t.Fatalf("released early: %+v", rec)
		}
	}
	p.Advance(11)
	got := collect(s)
	want := []uint64{10, 11, 5, 6}
	if len(got) != 5 {
		t.Fatalf("got %d records", len(got))
	}
	for i, ts := range want {
		if got[i].TS != ts || got[i].Type != MsgCommit {
			t.Fatalf("record %d: %+v, want TS %d", i, got[i], ts)
		}
	}
	if got[4].Type != MsgHeartbeat || got[4].TS != 11 {
		t.Fatalf("tail: %+v", got[4])
	}
}

func TestPublisherZeroTSPassThrough(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	p.Stage(Record{TS: 3, Type: MsgCommit})
	// Schema staged behind a held commit must wait for it (FIFO), so a
	// truncate can never overtake the commits its timestamp covers.
	p.Stage(Record{TS: 0, Type: MsgSchema, Payload: []byte("ddl")})
	if got := collect(s); len(got) != 0 {
		t.Fatalf("schema overtook a held commit: %+v", got)
	}
	p.Advance(3)
	got := collect(s)
	if len(got) != 3 || got[0].TS != 3 || got[1].Type != MsgSchema || got[2].Type != MsgHeartbeat {
		t.Fatalf("release order: %+v", got)
	}
	// With an empty queue, timestamp-less records release immediately.
	p.Stage(Record{TS: 0, Type: MsgLoad})
	if got := collect(s); len(got) != 1 || got[0].Type != MsgLoad {
		t.Fatalf("load not passed through: %+v", got)
	}
}

func TestPublisherOverflowDisconnects(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(2)
	for ts := uint64(1); ts <= 4; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// Buffer of 2 cannot hold 4 records: the subscriber must be cut.
	var got []Record
	for rec := range s.C {
		got = append(got, rec)
	}
	if !s.Lost() {
		t.Fatalf("overflowed subscriber not marked lost")
	}
	if p.Subscribers() != 0 {
		t.Fatalf("lost subscriber still attached")
	}
	if p.Drops() != 1 {
		t.Fatalf("drops = %d", p.Drops())
	}
	if len(got) == 0 {
		t.Fatalf("no records delivered before disconnect")
	}
}

func TestPublisherResume(t *testing.T) {
	p := NewPublisher(0)
	for ts := uint64(1); ts <= 10; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	p.Stage(Record{TS: 0, Type: MsgSchema})
	s, ok := p.Resume(7, 64)
	if !ok {
		t.Fatalf("resume refused inside history window")
	}
	got := collect(s)
	// Suffix above 7 (8, 9, 10), the schema record, and the catch-up
	// heartbeat.
	var ts []uint64
	for _, r := range got {
		if r.Type == MsgCommit {
			ts = append(ts, r.TS)
		}
	}
	if len(ts) != 3 || ts[0] != 8 || ts[2] != 10 {
		t.Fatalf("resume suffix: %v", ts)
	}
	if got[len(got)-1].Type != MsgHeartbeat || got[len(got)-1].TS != 10 {
		t.Fatalf("resume tail: %+v", got[len(got)-1])
	}
	// Live records keep flowing after resume.
	p.Stage(Record{TS: 11, Type: MsgCommit})
	p.Advance(11)
	live := collect(s)
	if len(live) != 2 || live[0].TS != 11 {
		t.Fatalf("live after resume: %+v", live)
	}
}

func TestPublisherResumeRefusedPastHistory(t *testing.T) {
	p := NewPublisher(4)
	for ts := uint64(1); ts <= 10; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// History holds only the newest 4 records (7..10); resuming from 3
	// would skip 4..6.
	if _, ok := p.Resume(3, 64); ok {
		t.Fatalf("resume allowed past evicted history")
	}
	if s, ok := p.Resume(6, 64); !ok {
		t.Fatalf("resume refused at history edge")
	} else {
		p.Detach(s)
	}
}

func TestPublisherResumeRefusedPastEvictedSchema(t *testing.T) {
	p := NewPublisher(4)
	// Commits 1..3 release (published watermark 3), then a schema
	// record: its eviction floor is 4 — only a replica whose applied
	// watermark moved past 3 provably received it (the heartbeat that
	// carried the higher watermark was enqueued after the release).
	for ts := uint64(1); ts <= 3; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	p.Stage(Record{TS: 0, Type: MsgSchema, Payload: []byte("create")})
	// Push the schema record out of the 4-slot history without evicting
	// any commit at or above TS 4, so the floor raise under test can
	// only come from the schema record itself.
	for ts := uint64(4); ts <= 7; ts++ {
		p.Stage(Record{TS: ts, Type: MsgCommit})
		p.Advance(ts)
	}
	// afterTS 3: the replica applied 1..3 but may have disconnected
	// before the schema record reached it, and the replayed suffix no
	// longer contains it — resuming would silently skip every commit
	// addressing the table it created.
	if _, ok := p.Resume(3, 64); ok {
		t.Fatalf("resume allowed across an evicted schema record")
	}
	if s, ok := p.Resume(4, 64); !ok {
		t.Fatalf("resume refused above the schema record's eviction floor")
	} else {
		p.Detach(s)
	}
}

func TestPublisherClose(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(4)
	p.Close()
	if _, ok := <-s.C; ok {
		t.Fatalf("channel open after close")
	}
	if s.Lost() {
		t.Fatalf("shutdown mis-flagged as overflow loss")
	}
	late := p.Attach(4)
	if _, ok := <-late.C; ok {
		t.Fatalf("attach after close returned live channel")
	}
}

func TestWireErrAndSendErr(t *testing.T) {
	we := WireErr{Msg: "boom", Code: 3}
	if we.Error() != "boom" {
		t.Fatalf("WireErr.Error() = %q", we.Error())
	}
	ca, cb := pipeConns(t)
	if ca.RemoteAddr() == nil {
		t.Fatal("RemoteAddr = nil")
	}
	done := make(chan error, 1)
	go func() { done <- ca.Flush() }() // SendErr flushes; pipe needs a reader
	go ca.SendErr("sent over the wire")
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgErr {
		t.Fatalf("ReadMsg = %d, %v", typ, err)
	}
	var got WireErr
	if err := Decode(payload, &got); err != nil || got.Msg != "sent over the wire" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

func TestPublisherFrameCount(t *testing.T) {
	p := NewPublisher(0)
	s := p.Attach(16)
	defer p.Detach(s)
	p.Stage(Record{TS: 1, Type: MsgCommit})
	p.Stage(Record{TS: 2, Type: MsgCommit})
	p.Advance(2)
	if got := p.Frames(); got != 2 {
		t.Fatalf("Frames() = %d, want 2", got)
	}
	if p.Drops() != 0 {
		t.Fatalf("Drops() = %d, want 0", p.Drops())
	}
}

func encodeMsg(m Message) []byte {
	var e binenc.Encoder
	m.Wire(binenc.Codec{E: &e})
	return e.B
}

// controlFrames returns one fresh zero value of every control message.
func controlFrames() []Message {
	return []Message{&Hello{}, &Welcome{}, &SnapBegin{}, &SnapEnd{}, &Heartbeat{}, &Ack{}, &WireErr{}}
}

func TestControlFrameRoundTrip(t *testing.T) {
	bad := "\xff\xfe\x00ns"
	for i, want := range []Message{
		&Hello{Version: ProtoVersion, Role: RoleReplica, Namespace: bad, AfterTS: math.MaxUint64},
		&Hello{Version: ProtoVersion},
		&Welcome{Snapshot: true, TS: math.MaxUint64},
		&Welcome{},
		&SnapBegin{TS: 9, Tables: math.MaxUint32},
		&SnapEnd{TS: math.MaxUint64},
		&Heartbeat{Watermark: math.MaxUint64},
		&Ack{AppliedTS: 1},
		&WireErr{Code: 255, Msg: bad},
		&WireErr{},
	} {
		got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(Message)
		if err := Decode(encodeMsg(want), got); err != nil {
			t.Fatalf("case %d (%T): %v", i, want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, want)
		}
	}
	// Short, long and wrong-version bodies are typed errors.
	hb := encodeMsg(&Heartbeat{Watermark: 7})
	for name, body := range map[string][]byte{
		"truncated": hb[:len(hb)-1],
		"trailing":  append(hb[:len(hb):len(hb)], 0),
	} {
		if err := Decode(body, &Heartbeat{}); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s heartbeat: err = %v, want ErrBadFrame", name, err)
		}
	}
	if err := Decode(encodeMsg(&Hello{Version: ProtoVersion + 1, Role: RoleSession}), &Hello{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("other-version hello: err = %v, want ErrBadFrame", err)
	}
}

// FuzzControlFrames: arbitrary bytes against every control decoder —
// no panic, only ErrBadFrame, and an accepted value survives a second
// encode/decode cycle unchanged.
func FuzzControlFrames(f *testing.F) {
	for _, m := range []Message{
		&Hello{Version: ProtoVersion, Role: RoleSession, Namespace: "default"},
		&Welcome{Snapshot: true, TS: 3}, &SnapBegin{TS: 3, Tables: 2}, &Heartbeat{Watermark: 9},
		&WireErr{Code: 2, Msg: "boom"},
	} {
		f.Add(encodeMsg(m))
	}
	f.Add([]byte{ProtoVersion, 0xff, 0xff, 0xff, 0xff}) // 4 GiB role string claimed
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, got := range controlFrames() {
			if err := Decode(data, got); err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("%T: untyped decode error: %v", got, err)
				}
				continue
			}
			again := controlFrames()[i]
			if err := Decode(encodeMsg(got), again); err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("%T: re-decoded %+v (err %v), first decode %+v", got, again, err, got)
			}
		}
	})
}

// frameHeader hand-builds a frame header claiming an n-byte body.
func frameHeader(n uint32, body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], n)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	return hdr[:]
}

// TestReadMsgDoesNotTrustLength: a header claiming the maximum body,
// followed by nine bytes and EOF, costs about one growth step — not the
// gigabyte it asks for — and a length over the read limit is refused
// outright.
func TestReadMsgDoesNotTrustLength(t *testing.T) {
	a, b := net.Pipe()
	cb := NewConn(b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	go func() {
		_, _ = a.Write(frameHeader(maxFrameLen, nil))
		_, _ = a.Write([]byte("nine byte"))
		_ = a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := cb.ReadMsg()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readStep {
		t.Fatalf("hostile length prefix cost %d bytes of allocation, want about %d", grew, readStep)
	}

	ca, cb := pipeConns(t)
	cb.SetReadLimit(16)
	go func() { _ = ca.Send(MsgRequest, make([]byte, 16)) }() // body = type byte + 16
	if _, _, err := cb.ReadMsg(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("over-limit frame: err = %v, want ErrBadFrame", err)
	}
}

// TestReadMsgLargeFrame: an honest frame much larger than the growth
// step arrives intact, and the buffer is reused for the next one.
func TestReadMsgLargeFrame(t *testing.T) {
	ca, cb := pipeConns(t)
	big := make([]byte, 3*readStep+12345)
	_, _ = rand.New(rand.NewSource(1)).Read(big) // never fails
	go func() {
		_ = ca.WriteMsg(MsgSnapChunk, big)
		_ = ca.WriteMsg(MsgCommit, big[:100])
		_ = ca.Flush()
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgSnapChunk || !bytes.Equal(payload, big) {
		t.Fatalf("large frame: type %d, %d bytes, err %v", typ, len(payload), err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgCommit || !bytes.Equal(payload, big[:100]) {
		t.Fatalf("frame after large: type %d, %d bytes, err %v", typ, len(payload), err)
	}
}

// shiftHistory is the publisher's previous history: a slice that evicts
// by shifting every element down. O(n) per record, which is why it was
// replaced — and the reference the ring must agree with.
type shiftHistory struct {
	recs  []histRec
	floor uint64
}

func (h *shiftHistory) retain(r histRec, histCap int) {
	if len(h.recs) >= histCap {
		if old := h.recs[0]; old.floor > h.floor {
			h.floor = old.floor
		}
		copy(h.recs, h.recs[1:])
		h.recs = h.recs[:len(h.recs)-1]
	}
	h.recs = append(h.recs, r)
}

// TestPublisherRingMatchesShiftHistory drives one seeded trace of
// commits and timestamp-less schema records through a small ring, many
// times around, and checks after every record that the resume floor and
// the age-ordered contents equal the shift implementation's, and that
// Resume replays exactly the oracle's suffix, in stage order.
func TestPublisherRingMatchesShiftHistory(t *testing.T) {
	const histCap = 7
	p := NewPublisher(histCap)
	var oracle shiftHistory
	rng := rand.New(rand.NewSource(42))
	ts := uint64(0)
	for step := 0; step < 20*histCap; step++ {
		var h histRec
		if rng.Intn(4) == 0 {
			h = histRec{rec: Record{Type: MsgSchema, Payload: []byte(fmt.Sprint("ddl", step))}, floor: p.Watermark() + 1}
			p.Stage(h.rec)
		} else {
			ts++
			h = histRec{rec: Record{TS: ts, Type: MsgCommit, Payload: []byte(fmt.Sprint("c", ts))}, floor: ts}
			p.Stage(h.rec)
			p.Advance(ts)
		}
		oracle.retain(h, histCap)

		if p.histFloor != oracle.floor {
			t.Fatalf("step %d: histFloor = %d, shift implementation has %d", step, p.histFloor, oracle.floor)
		}
		var ring []histRec
		for i := range p.history {
			ring = append(ring, p.history[(p.head+i)%len(p.history)])
		}
		if !reflect.DeepEqual(ring, oracle.recs) {
			t.Fatalf("step %d: ring in age order %+v, shift implementation %+v", step, ring, oracle.recs)
		}

		afterTS := oracle.floor + uint64(rng.Intn(3))
		var want []Record
		for _, o := range oracle.recs {
			if o.rec.TS == 0 || o.rec.TS > afterTS {
				want = append(want, o.rec)
			}
		}
		if w := p.Watermark(); w > afterTS {
			want = append(want, Record{Type: MsgHeartbeat, TS: w})
		}
		s, ok := p.Resume(afterTS, 64)
		if !ok {
			t.Fatalf("step %d: resume from %d refused at floor %d", step, afterTS, oracle.floor)
		}
		if got := collect(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: resume(%d) replayed %+v, want %+v", step, afterTS, got, want)
		}
		p.Detach(s)
	}
	if p.head == 0 && len(p.history) < histCap {
		t.Fatal("trace never wrapped the ring")
	}
}

// BenchmarkPublisherStage is Stage + Advance per record with the
// history empty and with it full (the steady state of any long-lived
// primary): the two must cost the same.
func BenchmarkPublisherStage(b *testing.B) {
	payload := make([]byte, 96)
	for _, fill := range []struct {
		name string
		n    uint64
	}{{"empty", 0}, {"full", defaultHistCap}} {
		b.Run(fill.name, func(b *testing.B) {
			p := NewPublisher(0)
			defer p.Close()
			ts := uint64(0)
			for ; ts < fill.n; ts++ {
				p.Stage(Record{TS: ts + 1, Type: MsgCommit, Payload: payload})
				p.Advance(ts + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts++
				p.Stage(Record{TS: ts, Type: MsgCommit, Payload: payload})
				p.Advance(ts)
			}
		})
	}
}
