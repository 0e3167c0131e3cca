package ankerdb

// Tests for the shared apply rules (apply.go): the one table-section
// codec under a round trip, hostile input and a fuzz target; the
// bounded bootstrap frames from both ends of the wire; and the
// convergence oracle — one history observed through crash recovery, a
// live replica and a fresh bootstrap must be one state.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ankerdb/internal/repl"
	"ankerdb/internal/storage"
	"ankerdb/internal/wal"
)

func sectionSchema() Schema {
	return NewSchema("sec").Int64("v").Varchar("s").Build()
}

const sectionInitialRows = 8

// withPageSize sets the simulated page size in bytes (default
// phys.DefaultPageSize).
func withPageSize(n int) Option { return func(c *config) { c.pageSize = n } }

// openSectionDB opens a memory database holding the empty "sec" table,
// on 64-word pages so that a grown table is still a small fuzz seed.
func openSectionDB(tb testing.TB) *DB {
	tb.Helper()
	db, err := Open(WithCostModel(ZeroCost), withPageSize(512), WithInitialSchema(sectionSchema(), sectionInitialRows))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = db.Close() })
	return db
}

// sectionSource fills "sec" the ways a section must carry: stamped
// cells, a dictionary, rows born and killed, and growth past the
// initial chunk.
func sectionSource(tb testing.TB) *DB {
	tb.Helper()
	db := openSectionDB(tb)
	chunk := db.tables["sec"].st.ChunkRows()
	for i := 0; i < chunk+40; i++ {
		tx, _ := db.Begin(OLTP)
		if _, err := tx.Insert("sec", map[string]any{"v": int64(i * 3), "s": fmt.Sprintf("str-%d", i%17)}); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	tx, _ := db.Begin(OLTP)
	_ = tx.Set("sec", "v", 2, -5)
	_ = tx.SetString("sec", "s", 3, "initial row, set")
	_ = tx.Delete("sec", sectionInitialRows+1)
	_ = tx.Delete("sec", chunk+3)
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	if got := db.tables["sec"].st.Capacity(); got < 2*chunk {
		tb.Fatalf("source did not grow: capacity %d, chunk %d", got, chunk)
	}
	return db
}

// sectionBytes is tab's table section as a fresh generation sees it.
func sectionBytes(tb testing.TB, db *DB, tab string) []byte {
	tb.Helper()
	g := db.snaps.acquireFresh()
	defer db.snaps.release(g)
	var buf bytes.Buffer
	w := wal.NewCheckpointWriter(&buf)
	if err := writeTableSection(w, g, db.tables[tab]); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func readSection(db *DB, body []byte) (seed uint64, err error) {
	r := wal.NewCheckpointReader(bytes.NewReader(body))
	err = db.readTableSection(r, func(v uint64) { seed = max(seed, v) })
	return seed, err
}

// sameArrays requires a's and b's table tab to agree word for word —
// data and write stamps of every column, birth, death — below rows,
// and in their dictionaries.
func sameArrays(tb testing.TB, a, b *DB, tab string, rows int) {
	tb.Helper()
	ta, tbl := a.tables[tab], b.tables[tab]
	if tbl.st.Capacity() < rows {
		tb.Fatalf("capacity %d, want at least %d", tbl.st.Capacity(), rows)
	}
	type arr struct {
		name string
		a, b *storage.Extent
	}
	arrays := []arr{{"birth", ta.st.Birth(), tbl.st.Birth()}, {"death", ta.st.Death(), tbl.st.Death()}}
	for i, c := range ta.cols {
		arrays = append(arrays, arr{c.def.Name + ".data", c.data, tbl.cols[i].data}, arr{c.def.Name + ".wts", c.wts, tbl.cols[i].wts})
	}
	for _, x := range arrays {
		for row := 0; row < rows; row++ {
			if x.a.GetU(row) != x.b.GetU(row) {
				tb.Fatalf("%s[%d] = %d, want %d", x.name, row, x.b.GetU(row), x.a.GetU(row))
			}
		}
	}
	da, db := ta.st.Dict().Strings(), tbl.st.Dict().Strings()
	if len(da) == 0 || fmt.Sprint(da) != fmt.Sprint(db) {
		tb.Fatalf("dictionary %q, want %q (non-empty)", db, da)
	}
}

// TestTableSectionRoundTrip: read(write(t)) reproduces t, and the oracle
// seed the reader reports covers every stamp it loaded.
func TestTableSectionRoundTrip(t *testing.T) {
	src := sectionSource(t)
	body := sectionBytes(t, src, "sec")
	dst := openSectionDB(t)
	seed, err := readSection(dst, body)
	if err != nil {
		t.Fatal(err)
	}
	sameArrays(t, src, dst, "sec", src.tables["sec"].st.Capacity())
	if want := src.oracle.Completed(); seed != want {
		t.Fatalf("seed %d, want the newest commit %d", seed, want)
	}
}

// hostileSections are section bodies whose length prefixes promise what
// their bytes do not hold.
func hostileSections() map[string][]byte {
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	header := func(rows uint64) []byte { // slot 0, "sec", rows, 2 columns
		b := append(u32(0, 3), "sec"...)
		b = binary.LittleEndian.AppendUint64(b, rows)
		return append(b, u32(2)...)
	}
	return map[string][]byte{
		"name length":      append(u32(0, math.MaxUint32), 'x'),
		"dictionary count": append(header(0), u32(math.MaxUint32)...),
		"dictionary entry": append(header(0), u32(1, math.MaxUint32)...),
		"row count":        append(header(maxRecoveredRow), make([]byte, 64)...),
		"rows past bound":  header(1 << 62),
		"wrong slot":       append(append(u32(7, 3), "sec"...), make([]byte, 12)...),
	}
}

// allocatedBy returns the bytes fn allocates (process-wide, so a loose
// upper bound is all it supports).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkSectionRead is the decoder's contract on arbitrary bytes: a typed
// error or none, and memory — Go heap and table capacity alike — bounded
// by the bytes present, never by what a prefix claims.
func checkSectionRead(t *testing.T, body []byte) error {
	t.Helper()
	db := openSectionDB(t)
	tab := db.tables["sec"]
	chunk, before := tab.st.ChunkRows(), tab.st.Capacity()
	var err error
	spent := allocatedBy(func() { _, err = readSection(db, body) })
	if err != nil && !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("untyped error: %v", err)
	}
	words := len(body) / 8
	if limit := max(before, (words+chunk-1)/chunk*chunk); tab.st.Capacity() > limit {
		t.Fatalf("capacity %d from %d bytes (limit %d)", tab.st.Capacity(), len(body), limit)
	}
	if n := tab.st.Dict().Len(); n > len(body)/4 {
		t.Fatalf("%d dictionary strings from %d bytes", n, len(body))
	}
	if limit := uint64(1<<20 + 64*len(body)); spent > limit {
		t.Fatalf("%d bytes allocated reading %d (limit %d)", spent, len(body), limit)
	}
	return err
}

// TestTableSectionRejectsHostilePrefixes pins the two defects of the
// second decoder copy this one replaced: a hostile name or dictionary
// length is a typed error costing a bounded allocation — not a panic,
// not the gigabytes it claims.
func TestTableSectionRejectsHostilePrefixes(t *testing.T) {
	for name, body := range hostileSections() {
		t.Run(name, func(t *testing.T) {
			if err := checkSectionRead(t, body); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// FuzzTableSection fuzzes the one table-section decoder, seeded from a
// real section (int and VARCHAR columns, a grown table, a dictionary)
// and the hostile prefixes.
func FuzzTableSection(f *testing.F) {
	real := sectionBytes(f, sectionSource(f), "sec")
	f.Add(real)
	f.Add(real[:len(real)/2])
	for _, body := range hostileSections() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { _ = checkSectionRead(t, body) })
}

// TestFillWordsStoresOncePerWindow: every array of a section — the birth
// array the old bootstrap decoder refilled once per WORD included — is
// grown and bulk-stored exactly once per window.
func TestFillWordsStoresOncePerWindow(t *testing.T) {
	const rows = 1<<16 + 5
	body := make([]byte, 8*rows)
	for i := 0; i < rows; i++ {
		binary.LittleEndian.PutUint64(body[8*i:], uint64(i+1))
	}
	binary.LittleEndian.PutUint64(body[8*7:], storage.NeverTS)
	var grows, stores, stored int
	var newest uint64
	err := fillWords(bytes.NewReader(body), rows,
		func(row int) error { grows++; return nil },
		func(v uint64) { newest = max(newest, v) },
		func(start int, words []uint64) {
			if start != stored {
				t.Fatalf("window at %d, want %d", start, stored)
			}
			stores++
			stored += len(words)
		})
	if err != nil {
		t.Fatal(err)
	}
	windows := (rows + 511) / 512
	if stored != rows || stores != windows || grows != windows {
		t.Fatalf("%d words in %d stores and %d grows, want %d words in %d windows", stored, stores, grows, rows, windows)
	}
	if newest != rows {
		t.Fatalf("newest stamp %d, want %d (NeverTS excluded)", newest, rows)
	}
}

// schemaFrames returns db's schema log as the frames a bootstrap opens
// with.
func schemaFrames(t *testing.T, db *DB) [][]byte {
	t.Helper()
	var frames [][]byte
	if err := db.wal.ReplaySchemaRaw(func(seq uint64, payload []byte) error {
		frames = append(frames, schemaFrame(seq, payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// fakePrimary accepts one replica connection per script, in order:
// welcomes it with a snapshot, runs the script over it and hangs up —
// except on the last, which stays open until the replica hangs up.
func fakePrimary(t *testing.T, scripts ...func(c *repl.Conn, hello repl.Hello)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	serve := func(script func(*repl.Conn, repl.Hello), last bool) bool {
		nc, err := ln.Accept()
		if err != nil {
			return false
		}
		c := repl.NewConn(nc)
		defer c.Close()
		var hello repl.Hello
		if typ, payload, err := c.ReadMsg(); err != nil || typ != repl.MsgHello || repl.Decode(payload, &hello) != nil {
			return false
		}
		_ = c.SendBody(repl.MsgWelcome, &repl.Welcome{Snapshot: true, TS: 1})
		script(c, hello)
		_ = c.Flush()
		if last {
			_, _, _ = c.ReadMsg()
		}
		return true
	}
	go func() {
		for i, script := range scripts {
			if !serve(script, i == len(scripts)-1) {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestBootstrapRefusesHostileBody: a replica fed a snapshot body with
// hostile prefixes, or a frame over the chunk bound, fails its Open with
// a typed error and a bounded allocation.
func TestBootstrapRefusesHostileBody(t *testing.T) {
	src, err := Open(WithCostModel(ZeroCost), WithDurability(t.TempDir()), WithSyncPolicy(SyncNone),
		WithInitialSchema(sectionSchema(), sectionInitialRows))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	schema := schemaFrames(t, src)
	bodies := hostileSections()
	const overBound = "frame over the chunk bound"
	bodies[overBound] = make([]byte, snapChunkLen+1)
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			addr := fakePrimary(t, func(c *repl.Conn, _ repl.Hello) {
				for _, f := range schema {
					_ = c.WriteMsg(repl.MsgSchema, f)
				}
				_ = c.WriteBody(repl.MsgSnapBegin, &repl.SnapBegin{TS: 1, Tables: 1})
				_ = c.WriteMsg(repl.MsgSnapChunk, body)
				_ = c.WriteBody(repl.MsgSnapEnd, &repl.SnapEnd{TS: 1})
			})
			var db *DB
			spent := allocatedBy(func() { db, err = Open(WithCostModel(ZeroCost), WithReplicaOf(addr)) })
			if err == nil {
				_ = db.Close()
				t.Fatal("bootstrap accepted a hostile body")
			}
			// The section reader reports what the wire reported: a refused
			// frame stays a frame error, only the body's own defects are
			// corruption.
			if !errors.Is(err, repl.ErrBadFrame) && (name == overBound || !errors.Is(err, ErrCorruptCheckpoint)) {
				t.Fatalf("untyped error: %v", err)
			}
			if spent > 32<<20 {
				t.Fatalf("%d bytes allocated refusing a %d-byte body", spent, len(body))
			}
		})
	}
}

// TestBootstrapFramesBounded plays the replica on a raw socket against
// a real primary whose table is several chunks large: no frame up to
// SnapEnd exceeds the chunk bound, and the chunks, concatenated, are
// table sections readTableSection loads back into the same table.
func TestBootstrapFramesBounded(t *testing.T) {
	const rows = 1 << 15 // 6 arrays of 256 KiB: six chunk bounds' worth
	p := openPrimary(t, WithInitialSchema(NewSchema("sec").Int64("v").Varchar("s").Build(), rows))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i) * 7
	}
	if err := p.Load("sec", "v", vals); err != nil {
		t.Fatal(err)
	}
	tx, _ := p.Begin(OLTP)
	_ = tx.SetString("sec", "s", 5, "five")
	_ = tx.Delete("sec", 9)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	c, _ := rawDial(t, p.ServeAddr())
	if err := c.SendBody(repl.MsgHello, &repl.Hello{Version: repl.ProtoVersion, Role: repl.RoleReplica}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	var sb repl.SnapBegin
	chunks := 0
	for done := false; !done; {
		typ, payload, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) > snapChunkLen {
			t.Fatalf("frame type %d carries %d bytes, bound %d", typ, len(payload), snapChunkLen)
		}
		switch typ {
		case repl.MsgSnapBegin:
			if err := repl.Decode(payload, &sb); err != nil {
				t.Fatal(err)
			}
		case repl.MsgSnapChunk:
			chunks++
			body.Write(payload)
		case repl.MsgSnapEnd:
			done = true
		}
	}
	if sb.Tables != 1 || chunks < 6 || body.Len() < 6*snapChunkLen {
		t.Fatalf("%d tables in %d chunks, %d bytes: want 1 table over at least 6 chunk bounds", sb.Tables, chunks, body.Len())
	}
	dst, err := Open(WithCostModel(ZeroCost), WithInitialSchema(NewSchema("sec").Int64("v").Varchar("s").Build(), rows))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := readSection(dst, body.Bytes()); err != nil {
		t.Fatal(err)
	}
	sameArrays(t, p, dst, "sec", rows)
}

// TestReplicaLiftsReadLimitAfterBootstrap: the chunk bound holds only
// while bootstrapping — a live-stream record larger than it (a bulk-load
// chunk of long strings) still applies.
func TestReplicaLiftsReadLimitAfterBootstrap(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("big").Varchar("s").Build(), 4096))
	r := openReplicaOf(t, p.ServeAddr())
	strs := make([]string, 4096)
	for i := range strs {
		strs[i] = fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 96)) // ~400 KiB in one record
	}
	if err := p.LoadStrings("big", "s", strs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	applied := func() bool {
		if r.tables["big"].st.Dict().Len() == 0 {
			return false // an unset VARCHAR cell has nothing to decode through
		}
		tx, _ := r.Begin(OLAP)
		defer tx.Abort()
		s, err := tx.GetString("big", "s", 4095)
		return err == nil && s == strs[4095]
	}
	for !applied() {
		if time.Now().After(deadline) {
			t.Fatalf("load never applied on the replica (reconnects %d)", r.Stats().ReplicaReconnects)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Over the stream that bootstrapped it: a replica that dropped the
	// frame would also get the strings, through a re-bootstrap.
	if st := r.Stats(); st.ReplicaReconnects != 0 || st.ReplicaBootstraps != 1 {
		t.Fatalf("load arrived after %d reconnects and %d bootstraps, want 0 and 1", st.ReplicaReconnects, st.ReplicaBootstraps)
	}
}

// TestTornRebootstrapRefusesReads: an in-place re-bootstrap overwrites
// rows window by window, so a stream cut mid-section leaves snapshot data
// under old stamps. Until a later bootstrap completes the replica must
// refuse snapshot pins and promotion, and must ask for a whole snapshot
// again rather than a resume.
func TestTornRebootstrapRefusesReads(t *testing.T) {
	src, err := Open(WithCostModel(ZeroCost), WithDurability(t.TempDir()), WithSyncPolicy(SyncNone),
		WithInitialSchema(sectionSchema(), sectionInitialRows))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	schema := schemaFrames(t, src)
	oldTS := commitWrite(t, src, "sec", "v", 1, 10)
	oldBody := sectionBytes(t, src, "sec")
	newTS := commitWrite(t, src, "sec", "v", 1, 20)
	newBody := sectionBytes(t, src, "sec")
	begin := func(c *repl.Conn, ts uint64) {
		for _, f := range schema {
			_ = c.WriteMsg(repl.MsgSchema, f)
		}
		_ = c.WriteBody(repl.MsgSnapBegin, &repl.SnapBegin{TS: ts, Tables: 1})
	}
	release := make(chan struct{})
	retry := make(chan repl.Hello, 1)
	addr := fakePrimary(t,
		func(c *repl.Conn, _ repl.Hello) {
			begin(c, oldTS)
			_ = c.WriteMsg(repl.MsgSnapChunk, oldBody)
			_ = c.WriteBody(repl.MsgSnapEnd, &repl.SnapEnd{TS: oldTS})
		},
		func(c *repl.Conn, _ repl.Hello) { // the reconnect: cut mid-section
			begin(c, newTS)
			_ = c.WriteMsg(repl.MsgSnapChunk, newBody[:len(newBody)/2])
			_ = c.Flush()
			_ = c.Close()
			<-release // the next connection waits for its welcome meanwhile
		},
		func(c *repl.Conn, hello repl.Hello) {
			retry <- hello
			begin(c, newTS)
			_ = c.WriteMsg(repl.MsgSnapChunk, newBody)
			_ = c.WriteBody(repl.MsgSnapEnd, &repl.SnapEnd{TS: newTS})
		})
	r := openReplicaOf(t, addr)
	if got := olapGet(t, r, "sec", "v", 1); got != 10 {
		t.Fatalf("bootstrapped value %d, want 10", got)
	}

	deadline := time.Now().Add(10 * time.Second)
	poll := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened (bootstraps %d, reconnects %d)", what, r.Stats().ReplicaBootstraps, r.Stats().ReplicaReconnects)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	poll("the cut re-bootstrap", func() bool {
		tx, err := r.Begin(OLAP)
		if err == nil {
			tx.Abort() // still whole: the reconnect has not started overwriting
			return false
		}
		if !errors.Is(err, errHalfBootstrapped) {
			t.Fatalf("begin on a torn replica: %v", err)
		}
		return true
	})
	if err := r.Promote(0); !errors.Is(err, ErrStalePromotion) {
		t.Fatalf("promoting a torn replica: %v, want ErrStalePromotion", err)
	}
	if n := r.Stats().ReplicaBootstraps; n != 1 {
		t.Fatalf("%d bootstraps counted, want only the first", n)
	}

	close(release)
	if hello := <-retry; hello.AfterTS != 0 {
		t.Fatalf("torn replica asked to resume after %d, want a whole snapshot", hello.AfterTS)
	}
	poll("the repairing bootstrap", func() bool {
		tx, err := r.Begin(OLAP)
		if err != nil {
			return false
		}
		tx.Abort()
		return true
	})
	if got := olapGet(t, r, "sec", "v", 1); got != 20 {
		t.Fatalf("repaired value %d, want 20", got)
	}
	if n := r.Stats().ReplicaBootstraps; n != 2 {
		t.Fatalf("%d bootstraps counted, want 2", n)
	}
}

// convergeTables are the tables of TestApplySourcesConverge's history.
var convergeTables = []string{"acct", "log", "tmp"}

// dumpState renders everything a reader can observe of tabs (each with
// the k, v and s columns of the converge tables) at db's newest
// snapshot: per table the visible rows with every column's value, the
// count by aggregate, by bare CountRows and by scan, and index probes.
func dumpState(t *testing.T, db *DB, tabs ...string) string {
	t.Helper()
	var out strings.Builder
	tx, err := db.Begin(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for _, tab := range tabs {
		rows, err := tx.Filter(tab, "k", math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatalf("%s: %v", tab, err)
		}
		ks, _ := tx.Scan(tab, "k")
		n, _ := tx.Aggregate(tab, "k", Count)
		res, err := tx.Query(tab).Aggregate(CountRows()).Run()
		if err != nil {
			t.Fatalf("%s: count: %v", tab, err)
		}
		fmt.Fprintf(&out, "%s: %d rows, count %d, CountRows %d, scan %d\n", tab, len(rows), n, res.At(0, 0), len(ks))
		for _, row := range rows {
			k, _ := tx.Get(tab, "k", row)
			v, _ := tx.Get(tab, "v", row)
			s, _ := tx.GetString(tab, "s", row)
			fmt.Fprintf(&out, "  %d: k=%d v=%d s=%q\n", row, k, v, s)
		}
		for k := int64(0); k < 8; k++ {
			hit, err := tx.Lookup(tab, "k", k)
			if err != nil {
				t.Fatalf("%s: lookup: %v", tab, err)
			}
			fmt.Fprintf(&out, "  k=%d at %v\n", k, hit)
		}
	}
	return out.String()
}

// nextSlots is the allocator state: per table, the row the next Insert
// would take.
func nextSlots(db *DB) string {
	var out strings.Builder
	for _, tab := range convergeTables {
		t := db.tables[tab]
		t.amu.Lock()
		slot := t.next
		if n := len(t.free); n > 0 {
			slot = t.free[n-1]
		}
		t.amu.Unlock()
		fmt.Fprintf(&out, "%s:%d ", tab, slot)
	}
	return out.String()
}

// newestStamp is the newest commit stamp any array of db carries.
func newestStamp(db *DB) (newest uint64) {
	for _, t := range db.liveTables() {
		for row, capacity := 0, t.st.Capacity(); row < capacity; row++ {
			if b := t.st.Birth().GetU(row); b != storage.NeverTS {
				newest = max(newest, b)
			}
			newest = max(newest, t.st.Death().GetU(row))
			for _, c := range t.cols {
				newest = max(newest, c.wts.GetU(row))
			}
		}
	}
	return newest
}

// TestApplySourcesConverge is the equivalence oracle of the shared
// apply rules: one seeded history — bulk loads, updates, inserts,
// deletes, VARCHAR values, an online CreateIndex, a Truncate followed by
// re-inserts, a DropTable with a same-name re-create, a checkpoint in
// the middle — is observed through the three sources that rebuild
// state from it: crash recovery of the primary's directory, a live
// replica that streamed it, and a replica bootstrapped after it. All
// three and the primary must show the same scans, counts and index
// probes, and hand the next Insert the same slot.
func TestApplySourcesConverge(t *testing.T) {
	schema := func(name string) Schema { return NewSchema(name).Int64("k").Int64("v").Varchar("s").Build() }
	dir := t.TempDir()
	p := openPrimary(t, WithDurability(dir), WithCommitShards(2))
	for _, tab := range convergeTables {
		if err := p.CreateTable(schema(tab), 32); err != nil {
			t.Fatal(err)
		}
	}
	live := openReplicaOf(t, p.ServeAddr(), WithCommitShards(2))

	rng := rand.New(rand.NewSource(21))
	do := func(fn func(tx *Txn) error) {
		t.Helper()
		tx, err := p.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	held := map[string][]int{} // rows this history inserted and has not deleted
	churn := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tab := convergeTables[rng.Intn(len(convergeTables))]
			switch op := rng.Intn(10); {
			case op < 5 && tab == "log":
				// No updates: "log" loses its initial rows to the truncate,
				// and stays small enough that its allocator tells a restart
				// at zero from one at the initial row count.
			case op < 4:
				do(func(tx *Txn) error { return tx.Set(tab, "v", rng.Intn(32), rng.Int63n(1000)) })
			case op < 5:
				do(func(tx *Txn) error { return tx.SetString(tab, "s", rng.Intn(32), fmt.Sprintf("s%d", rng.Intn(50))) })
			case op < 8 || len(held[tab]) == 0:
				do(func(tx *Txn) error {
					row, err := tx.Insert(tab, map[string]any{"k": rng.Int63n(8), "v": rng.Int63n(1000), "s": fmt.Sprintf("ins%d", i)})
					held[tab] = append(held[tab], row)
					return err
				})
			default:
				j := rng.Intn(len(held[tab]))
				row := held[tab][j]
				held[tab] = append(held[tab][:j], held[tab][j+1:]...)
				do(func(tx *Txn) error { return tx.Delete(tab, row) })
			}
		}
	}

	ks, names := make([]int64, 32), make([]string, 32)
	for i := range ks {
		ks[i], names[i] = int64(i%8), fmt.Sprintf("name%d", i)
	}
	for _, tab := range convergeTables {
		if err := p.Load(tab, "k", ks); err != nil {
			t.Fatal(err)
		}
		if err := p.LoadStrings(tab, "s", names); err != nil {
			t.Fatal(err)
		}
	}
	churn(120)
	if err := p.CreateIndex("acct", "k", Ordered); err != nil {
		t.Fatal(err)
	}
	churn(60)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(60)
	if err := p.Truncate("log"); err != nil {
		t.Fatal(err)
	}
	held["log"] = nil
	for i := 0; i < 5; i++ { // fewer re-inserts than initial rows: the allocator restarted at zero
		do(func(tx *Txn) error {
			row, err := tx.Insert("log", map[string]any{"k": int64(i), "v": int64(i), "s": "after truncate"})
			held["log"] = append(held["log"], row)
			return err
		})
	}
	if err := p.DropTable("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable(NewSchema("tmp").Int64("k").Indexed(Hash).Int64("v").Varchar("s").Build(), 32); err != nil {
		t.Fatal(err)
	}
	held["tmp"] = nil
	churn(120)

	waitReplicaTS(t, live, p.oracle.Completed())
	boot := openReplicaOf(t, p.ServeAddr())
	waitReplicaTS(t, boot, p.oracle.Completed())

	// The crash image: WAL appends are plain file writes, so a copy of
	// the quiescent directory is what a crash right now would leave.
	crashDir := t.TempDir()
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		rel, _ := filepath.Rel(dir, path)
		if err != nil || d.IsDir() {
			return os.MkdirAll(filepath.Join(crashDir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(crashDir, rel), b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(WithCostModel(ZeroCost), WithDurability(crashDir), WithSyncPolicy(SyncNone), WithCommitShards(2))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer recovered.Close()

	want, wantSlots := dumpState(t, p, convergeTables...), nextSlots(p)
	for name, db := range map[string]*DB{"recovered": recovered, "live replica": live, "bootstrapped replica": boot} {
		if got := dumpState(t, db, convergeTables...); got != want {
			t.Errorf("%s diverges from the primary:\n%s\nprimary:\n%s", name, got, want)
		}
		if name == "live replica" {
			continue // its allocator is only rebuilt by Promote, below
		}
		if got := nextSlots(db); got != wantSlots {
			t.Errorf("%s would insert at %s, primary at %s", name, got, wantSlots)
		}
	}

	// Failover: the promoted live replica allocates where the primary
	// would, and stamps above everything it applied.
	applied := max(newestStamp(live), p.oracle.Completed())
	if err := live.Promote(p.oracle.Completed()); err != nil {
		t.Fatal(err)
	}
	if got := nextSlots(live); got != wantSlots {
		t.Errorf("promoted replica would insert at %s, primary at %s", got, wantSlots)
	}
	var row int
	for _, db := range []*DB{p, recovered, live} {
		tx, _ := db.Begin(OLTP)
		if row, err = tx.Insert("log", map[string]any{"k": int64(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("log:%d ", row); !strings.Contains(wantSlots, want) {
			t.Errorf("insert landed in %sof %s", want, wantSlots)
		}
	}
	if row >= 32 {
		t.Errorf("log's allocator at %d no longer tells a restart at zero from one at 32", row)
	}
	if ts := live.oracle.Completed(); ts <= applied {
		t.Errorf("promoted replica committed at %d, not above the applied stamp %d", ts, applied)
	}
	if b := live.tables["log"].st.Birth().GetU(row); b <= applied {
		t.Errorf("promoted replica's insert born at %d, not above the applied stamp %d", b, applied)
	}
}
