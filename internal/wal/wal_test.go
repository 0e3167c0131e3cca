package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func testRecords(ts uint64, n int) []CommitRecord {
	recs := make([]CommitRecord, n)
	for i := range recs {
		recs[i] = CommitRecord{
			TS: ts + uint64(i),
			Writes: []RedoWrite{
				{Table: 0, Col: i % 3, Row: 10 + i, Val: int64(100 * i)},
				{Table: 1, Col: 0, Row: i, Val: -1, Str: "str", HasStr: true},
			},
		}
	}
	return recs
}

func TestCommitRecordRoundtrip(t *testing.T) {
	for _, rec := range testRecords(7, 4) {
		got, err := decodeCommit(rec.encode(nil))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got, rec)
		}
	}
	// Empty write set (legal encoding, even if the engine never logs one).
	got, err := decodeCommit(CommitRecord{TS: 9}.encode(nil))
	if err != nil || got.TS != 9 || len(got.Writes) != 0 {
		t.Fatalf("empty record roundtrip: %+v, %v", got, err)
	}
}

func TestRowOpCommitRecordRoundtrip(t *testing.T) {
	// Row ops force the kind-3 layout; the payload must lead with the
	// row-op kind byte and survive the round trip ops-and-writes alike.
	rec := CommitRecord{
		TS: 42,
		Writes: []RedoWrite{
			{Table: 0, Col: 1, Row: 7, Val: 99},
			{Table: 0, Col: 2, Row: 7, Val: -1, Str: "name", HasStr: true},
		},
		Ops: []RowOp{
			{Table: 0, Row: 7},            // insert
			{Table: 1, Row: 3, Del: true}, // delete
		},
	}
	payload := rec.encode(nil)
	if payload[0] != recKindRowCommit {
		t.Fatalf("kind byte = %d, want %d", payload[0], recKindRowCommit)
	}
	got, err := decodeCommit(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, rec)
	}
	// A delete-only record (no writes) is legal.
	delOnly := CommitRecord{TS: 43, Ops: []RowOp{{Table: 0, Row: 1, Del: true}}}
	got, err = decodeCommit(delOnly.encode(nil))
	if err != nil || !reflect.DeepEqual(got, delOnly) {
		t.Fatalf("delete-only roundtrip: %+v, %v", got, err)
	}
	// Truncated kind-3 payloads fail loudly at every cut.
	for cut := 1; cut < len(payload); cut += 5 {
		if _, err := decodeCommit(payload[:cut]); err == nil {
			t.Fatalf("truncated row-op record at %d accepted", cut)
		}
	}
}

func TestLoadRecordRoundtrip(t *testing.T) {
	for _, rec := range []LoadRecord{
		{Table: 2, Col: 1, Start: 4096, Vals: []int64{1, -2, 3}},
		{Table: 0, Col: 0, Start: 0, Strs: []string{"a", "", "ccc"}, HasStrs: true},
	} {
		got, err := decodeLoad(rec.encode(nil))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got, rec)
		}
	}
	// Kind bytes must not cross-decode.
	if _, err := decodeLoad(testRecords(1, 1)[0].encode(nil)); err == nil {
		t.Fatal("decodeLoad accepted a commit record")
	}
	if _, err := decodeCommit(LoadRecord{Vals: []int64{1}}.encode(nil)); err == nil {
		t.Fatal("decodeCommit accepted a load record")
	}
}

func TestReplayDispatchesRecordKinds(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Anchor with a schema record so the reopen does not discard the
	// segment as an orphan.
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 4}); err != nil {
		t.Fatal(err)
	}
	loads := []LoadRecord{
		{Table: 0, Col: 0, Start: 0, Vals: []int64{10, 20}},
		{Table: 0, Col: 1, Start: 2, Strs: []string{"x"}, HasStrs: true},
	}
	if err := l.AppendLoads(0, loads); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, testRecords(5, 2)); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); got != 4 {
		t.Fatalf("Records() = %d, want 4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var gotLoads []LoadRecord
	var gotCommits []CommitRecord
	if err := l2.ReplayCommits(
		func(r LoadRecord) error { gotLoads = append(gotLoads, r); return nil },
		func(r CommitRecord) error { gotCommits = append(gotCommits, r); return nil },
	); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLoads, loads) {
		t.Fatalf("loads mismatch: got %+v want %+v", gotLoads, loads)
	}
	if len(gotCommits) != 2 || gotCommits[0].TS != 5 {
		t.Fatalf("commits mismatch: %+v", gotCommits)
	}
	if l2.RecoveryPeakBytes() == 0 || l2.RecoveryPeakBytes() > 1<<20 {
		t.Fatalf("RecoveryPeakBytes = %d, want (0, 1MiB]", l2.RecoveryPeakBytes())
	}
}

// TestSegmentFormatGate: a segment whose header is not the current
// segMagic (an old-format or foreign file) must fail replay with an
// unsupported-format error instead of misparsing its bytes as records;
// a header torn mid-write just means an empty segment.
func TestSegmentFormatGate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Old-format segment: frames with no header (the pre-kind-byte
	// layout started straight with a frame).
	old := appendFrame(nil, []byte("not a current-format record"))
	if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(0, 1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	err = l.ReplayCommits(
		func(LoadRecord) error { return nil },
		func(CommitRecord) error { return nil })
	if err == nil {
		t.Fatal("old-format segment replayed without error")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn header (shorter than segMagic) holds no records but is not
	// an error.
	dir2 := t.TempDir()
	l2, err := Open(dir2, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := os.WriteFile(filepath.Join(dir2, "wal", segmentName(0, 1)), segMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 0 {
		t.Fatalf("torn-header segment produced %d records", len(got))
	}
}

// TestLoadOnlySegmentTruncated: a segment holding only bulk-load
// records carries no timestamp and is reclaimed by the first
// checkpoint, whose capture covers the loaded data.
func TestLoadOnlySegmentTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendLoads(0, []LoadRecord{{Table: 0, Col: 0, Vals: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	err = l.WriteCheckpoint(1, 1, func(w *CheckpointWriter) error {
		if err := w.BeginTable(0, "t", 0, 0); err != nil {
			return err
		}
		return w.FinishTable(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(segs) != 0 {
		t.Fatalf("load-only segment survived checkpoint truncation: %v", segs)
	}
}

func TestTableRecordRoundtrip(t *testing.T) {
	rec := TableRecord{Name: "acct", Rows: 4096, Columns: []ColumnDef{{Name: "id", Type: 0, Index: 2}, {Name: "name", Type: 3}}}
	got, err := decodeTable(rec.encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, rec)
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	full := testRecords(3, 1)[0].encode(nil)
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeCommit(full[:cut]); err == nil {
			t.Fatalf("decodeCommit accepted %d of %d bytes", cut, len(full))
		}
	}
}

// FuzzWALRecords: arbitrary bytes against every WAL and schema-log
// payload decoder — commit (kinds 1 and 3), load, table, index-DDL and
// table-DDL — seeded from real encodings and hostile count prefixes.
// Every commit record that decodes also pins AppendCommits' presizing
// and in-place framing to the payload layout: its exact size is its
// encoding's length, and its in-place frame is appendFrame's.
func FuzzWALRecords(f *testing.F) {
	for _, seed := range [][]byte{
		CommitRecord{TS: 7, Writes: []RedoWrite{{Table: 1, Col: 2, Row: 3, Val: -1, Str: "varchar", HasStr: true}}}.encode(nil),
		CommitRecord{TS: 8, Writes: []RedoWrite{{Row: 4, Val: 5}}, Ops: []RowOp{{Row: 4}, {Table: 1, Row: 9, Del: true}}}.encode(nil),
		LoadRecord{Table: 1, Col: 1, Start: 512, Strs: []string{"a", "", "ccc"}, HasStrs: true}.encode(nil),
		TableRecord{Name: "t", Rows: 64, Columns: []ColumnDef{{Name: "k", Index: 1}, {Name: "s", Type: 3}}}.encode(nil),
		IndexDDLRecord{Table: "t", Column: "k", Kind: 2, Drop: true}.encode(nil),
		TableDDLRecord{Name: "t", Op: TableDDLTruncate, TS: 9}.encode(nil),
		{recKindCommit, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},              // 4G writes claimed
		{recKindLoad, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, // 4G strings claimed
		{1, 0, 0, 0, 't', 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},            // 4G columns claimed
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, decodeCommit, CommitRecord.encode, nil)
		if r, err := decodeCommit(data); err == nil {
			enc := r.encode(nil)
			if r.size() != len(enc) {
				t.Fatalf("size %d, encoding %d bytes", r.size(), len(enc))
			}
			prefix := []byte("frame")
			got := appendFramed(append([]byte(nil), prefix...), r.encode)
			if want := appendFrame(prefix, enc); !bytes.Equal(got, want) {
				t.Fatalf("in-place frame %x, appendFrame %x", got, want)
			}
		}
		checkDecoder(t, data, decodeLoad, LoadRecord.encode, nil)
		// A table record's trailing index kinds are optional (logs from
		// before indexes), so only a cut into the columns is garbage.
		checkDecoder(t, data, decodeTable, TableRecord.encode, func(r TableRecord) int { return len(r.Columns) })
		checkDecoder(t, data, decodeIndexDDL, IndexDDLRecord.encode, nil)
		checkDecoder(t, data, decodeTableDDL, TableDDLRecord.encode, nil)
	})
}

// checkDecoder is a payload decoder's contract on arbitrary bytes: no
// panic; memory bounded by the bytes present, never by what a count
// prefix claims; a decoded record re-encodes to bytes that decode to
// the same record; and that encoding cut short by one more byte than
// its optional tail is an error.
func checkDecoder[R any](t *testing.T, data []byte, decode func([]byte) (R, error), encode func(R, []byte) []byte, optional func(R) int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := decode(data)
	runtime.ReadMemStats(&after)
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*len(data)); spent > limit {
		t.Fatalf("%T: %d bytes allocated decoding %d (limit %d)", rec, spent, len(data), limit)
	}
	if err != nil {
		return
	}
	enc := encode(rec, nil)
	again, err := decode(enc)
	if err != nil || !reflect.DeepEqual(again, rec) {
		t.Fatalf("%T: re-decoded %+v (err %v), first decode %+v", rec, again, err, rec)
	}
	cut := len(enc) - 1
	if optional != nil {
		cut -= optional(rec)
	}
	if _, err := decode(enc[:cut]); err == nil {
		t.Fatalf("%T: accepted %d of its %d bytes", rec, cut, len(enc))
	}
}

func replayAll(t *testing.T, l *Log) []CommitRecord {
	t.Helper()
	var got []CommitRecord
	if err := l.ReplayCommits(
		func(LoadRecord) error { return nil },
		func(r CommitRecord) error {
			got = append(got, r)
			return nil
		}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayAcrossShards(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 3, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Anchor the directory: segments without any schema records are
	// treated as orphans and discarded on the next Open.
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 1}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for shard := 0; shard < 3; shard++ {
		recs := testRecords(uint64(1+10*shard), 4)
		if err := l.AppendCommits(shard, recs); err != nil {
			t.Fatalf("append shard %d: %v", shard, err)
		}
		want += len(recs)
	}
	if l.Bytes() == 0 || l.Fsyncs() == 0 {
		t.Fatalf("expected bytes and fsyncs counted, got %d / %d", l.Bytes(), l.Fsyncs())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, 3, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != want {
		t.Fatalf("replayed %d records, want %d", len(got), want)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncGroup, SyncAlways, SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			l, err := Open(t.TempDir(), 1, p)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.AppendCommits(0, testRecords(1, 8)); err != nil {
				t.Fatal(err)
			}
			fsyncs := l.Fsyncs()
			switch p {
			case SyncNone:
				// Open always syncs the root directory once so the schema
				// log's directory entry is durable; SyncNone skips all
				// subsequent data and dir syncs.
				if fsyncs != 1 {
					t.Fatalf("SyncNone issued %d fsyncs, want 1", fsyncs)
				}
			case SyncGroup:
				// Root dir sync at open + one dir sync for segment
				// creation + one data sync for the whole 8-record batch.
				if fsyncs != 3 {
					t.Fatalf("SyncGroup issued %d fsyncs, want 3", fsyncs)
				}
			case SyncAlways:
				// Root dir + segment dir syncs, then one per record.
				if fsyncs != 2+8 {
					t.Fatalf("SyncAlways issued %d fsyncs, want 10", fsyncs)
				}
			}
		})
	}
}

// TestOnAppendHandsOverLoggedPayloads: every shard-segment append — a
// commit batch, a load, a received payload — hands OnAppend each
// record's timestamp (0 for a load chunk) and the payload bytes it
// logged, capped at the frame's end, after one fsync per append under
// SyncGroup. AppendEncoded frames a copy of its payload and refuses,
// without poisoning the log, one whose timestamp or kind disagrees with
// ts. Replay reads back exactly the records handed over.
func TestOnAppendHandsOverLoggedPayloads(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 1}); err != nil {
		t.Fatal(err)
	}
	type record struct {
		ts      uint64
		payload []byte
	}
	var got []record
	l.OnAppend = func(ts uint64, p []byte) {
		if cap(p) != len(p) {
			t.Errorf("payload at ts %d has cap %d past its %d bytes", ts, cap(p), len(p))
		}
		got = append(got, record{ts, p})
	}
	commits := testRecords(1, 3)
	loads := []LoadRecord{{Table: 1, Vals: []int64{1, 2}}, {Table: 1, Start: 2, Strs: []string{"s"}, HasStrs: true}}
	received := testRecords(9, 1)[0]
	payload := received.encode(nil)
	fsyncs := l.Fsyncs()
	if err := l.AppendCommits(0, commits); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLoads(0, loads); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEncoded(0, 9, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0xff // the log framed a copy
	for _, bad := range []struct {
		ts      uint64
		payload []byte
	}{{10, received.encode(nil)}, {0, received.encode(nil)}, {9, payload}, {9, nil}} {
		if err := l.AppendEncoded(0, bad.ts, bad.payload); err == nil {
			t.Fatalf("AppendEncoded accepted %x at ts %d", bad.payload, bad.ts)
		}
	}
	if l.Failed() {
		t.Fatal("a refused payload poisoned the log")
	}
	// One segment-directory sync, then one fsync per append.
	if n := l.Fsyncs() - fsyncs; n != 1+3 {
		t.Fatalf("%d fsyncs for three appends, want 4", n)
	}
	want := []record{
		{1, commits[0].encode(nil)}, {2, commits[1].encode(nil)}, {3, commits[2].encode(nil)},
		{0, loads[0].encode(nil)}, {0, loads[1].encode(nil)}, {9, received.encode(nil)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnAppend got %v, want %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var replayed []record
	if err := l.ReplayCommits(
		func(r LoadRecord) error { replayed = append(replayed, record{0, r.encode(nil)}); return nil },
		func(r CommitRecord) error { replayed = append(replayed, record{r.TS, r.encode(nil)}); return nil },
	); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed %v, want %v", replayed, want)
	}
}

func TestTornTailReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Anchor with a schema record so the reopen does not discard the
	// segment as an orphan.
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, testRecords(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: truncate the single segment by a few bytes.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 4 {
		t.Fatalf("torn-tail replay returned %d records, want 4", len(got))
	}
	for i, r := range got {
		if r.TS != uint64(1+i) {
			t.Fatalf("record %d has TS %d, want %d", i, r.TS, 1+i)
		}
	}
}

// tornFrame is a frame header claiming claim payload bytes, followed by
// only have of them: what a crash mid-append, or bit rot in a length
// prefix, leaves behind.
func tornFrame(claim uint32, have int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, claim)
	return append(b, make([]byte, 4+have)...)
}

// TestTornFrameLengthBoundedByFile: a frame whose length prefix claims
// 64 MiB, in a 26-byte segment, costs replay only the bytes present. It
// is a torn tail — no record, counted in TailBytes — and the recovery
// peak stays within the read window plus the file.
func TestTornFrameLengthBoundedByFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seg := append(append([]byte(nil), segMagic...), tornFrame(64<<20, 10)...)
	if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(0, 1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("torn frame replayed as %d records", len(got))
	}
	if peak, bound := l.RecoveryPeakBytes(), uint64(replayBufSize+len(seg)); peak > bound {
		t.Fatalf("recovery peak %d bytes for a %d-byte segment, bound %d", peak, len(seg), bound)
	}
	if got, want := l.TailBytes(), uint64(len(seg)-len(segMagic)); got != want {
		t.Fatalf("TailBytes = %d, want the %d bytes of the torn frame", got, want)
	}
}

// FuzzWALFraming: arbitrary bytes as the schema log, and as the frames
// of a shard segment (behind a valid header, beside a valid schema log).
// Open and replay either stop cleanly or fail with ErrCorruptWAL; they
// never panic, and they allocate in proportion to the bytes present —
// never what a length prefix claims.
func FuzzWALFraming(f *testing.F) {
	table := appendFramed(nil, TableRecord{Name: "t", Rows: 8, Columns: []ColumnDef{{Name: "v"}}}.encode)
	commit := appendFramed(nil, testRecords(1, 1)[0].encode)
	for _, seed := range [][]byte{
		nil,
		commit,
		append(append([]byte(nil), commit...), commit[:5]...),
		table,
		tornFrame(64<<20, 10),
		tornFrame(1<<31, 0),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayFraming(t, data, nil)
		replayFraming(t, table, data)
	})
}

// replayFraming writes schema as dir/schema.log and, when frames is
// non-nil, segMagic+frames as a shard segment, then opens the log and
// replays both, checking FuzzWALFraming's contract.
func replayFraming(t *testing.T, schema, frames []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "schema.log"), schema, 0o644); err != nil {
		t.Fatal(err)
	}
	present := len(schema)
	if frames != nil {
		seg := append(append([]byte(nil), segMagic...), frames...)
		if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(0, 1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		present += len(seg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(dir, 1, SyncNone)
	if err == nil {
		defer l.Close()
		err = l.ReplaySchemaDDL(
			func(TableRecord) error { return nil },
			func(IndexDDLRecord) error { return nil },
			func(TableDDLRecord) error { return nil })
		if err == nil {
			err = l.ReplayCommits(
				func(LoadRecord) error { return nil },
				func(CommitRecord) error { return nil })
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil && !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("replay failed with %v, want ErrCorruptWAL or a clean stop", err)
	}
	// Three passes (Open's orphan check, schema, segments), each a read
	// window plus frames and records bounded by the file.
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*replayBufSize+256*present); spent > limit {
		t.Fatalf("%d bytes allocated replaying %d bytes (limit %d)", spent, present, limit)
	}
}

func TestSchemaLogReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	want := []TableRecord{
		{Name: "a", Rows: 16, Columns: []ColumnDef{{Name: "x", Type: 0}}},
		{Name: "b", Rows: 32, Columns: []ColumnDef{{Name: "y", Type: 3}, {Name: "z", Type: 1}}},
	}
	for _, r := range want {
		if err := l.AppendTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []TableRecord
	if err := l2.ReplaySchemaDDL(func(r TableRecord) error {
		got = append(got, r)
		return nil
	}, func(IndexDDLRecord) error { return nil }, func(TableDDLRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schema replay mismatch: got %+v want %+v", got, want)
	}
}

func TestCheckpointRoundtripAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 2, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Anchor with a schema record so replayAllCount's reopen does not
	// discard segments and checkpoints as orphans.
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, testRecords(1, 3)); err != nil { // TS 1..3
		t.Fatal(err)
	}
	if err := l.AppendCommits(1, testRecords(4, 2)); err != nil { // TS 4..5
		t.Fatal(err)
	}

	words := []uint64{7, 8, 9}
	err = l.WriteCheckpoint(5, 1, func(w *CheckpointWriter) error {
		if err := w.BeginTable(0, "t", len(words), 1); err != nil {
			return err
		}
		for _, v := range words { // data words
			w.u64(v)
		}
		for range words { // wts words
			w.u64(5)
		}
		return w.FinishTable([]string{"s0", "s1"})
	})
	if err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}

	// Both segments' records are <= 5: truncation must have removed them.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(segs) != 0 {
		t.Fatalf("expected WAL fully truncated, still have %v", segs)
	}

	ts, ok, err := l.LoadCheckpoint(func(ts uint64, ntables int, r *CheckpointReader) error {
		if ntables != 1 {
			t.Fatalf("ntables = %d", ntables)
		}
		slot, name, rows, cols, err := r.TableHeader()
		if err != nil {
			return err
		}
		if slot != 0 || name != "t" || rows != 3 || cols != 1 {
			t.Fatalf("table header: %d %q %d %d", slot, name, rows, cols)
		}
		for i := 0; i < 2*rows; i++ {
			v, err := r.u64()
			if err != nil {
				return err
			}
			if i < rows && v != words[i] {
				t.Fatalf("data word %d = %d, want %d", i, v, words[i])
			}
			if i >= rows && v != 5 {
				t.Fatalf("wts word %d = %d, want 5", i-rows, v)
			}
		}
		dict, err := r.TableDict()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(dict, []string{"s0", "s1"}) {
			t.Fatalf("table dict: %v", dict)
		}
		return nil
	})
	if err != nil || !ok || ts != 5 {
		t.Fatalf("load checkpoint: ts=%d ok=%v err=%v", ts, ok, err)
	}

	// Records after the checkpoint survive the next truncation only if
	// above its timestamp.
	if err := l.AppendCommits(0, testRecords(6, 2)); err != nil { // TS 6..7
		t.Fatal(err)
	}
	if err := l.TruncateBelow(5); err != nil {
		t.Fatal(err)
	}
	if got := replayAllCount(t, dir); got != 2 {
		t.Fatalf("post-checkpoint records: %d, want 2", got)
	}
}

func replayAllCount(t *testing.T, dir string) int {
	t.Helper()
	l, err := Open(dir, 2, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return len(replayAll(t, l))
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.WriteCheckpoint(3, 1, func(w *CheckpointWriter) error {
		if err := w.BeginTable(0, "t", 0, 0); err != nil {
			return err
		}
		return w.FinishTable(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpts, err := l.checkpoints()
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints: %v, %v", ckpts, err)
	}
	// Flip one body byte: the whole-file CRC must reject the load.
	buf, err := os.ReadFile(ckpts[0].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(ckpts[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.LoadCheckpoint(func(uint64, int, *CheckpointReader) error { return nil }); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
}

func TestOpenRemovesOrphanedTempCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "checkpoint.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp checkpoint survived Open: %v", err)
	}
}

func TestPoisonedLogRefusesAppends(t *testing.T) {
	l, err := Open(t.TempDir(), 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendCommits(0, testRecords(1, 1)); err != nil {
		t.Fatal(err)
	}
	l.failed.Store(true) // as the first write/sync error would
	if err := l.AppendCommits(0, testRecords(2, 1)); err != ErrLogFailed {
		t.Fatalf("poisoned append returned %v, want ErrLogFailed", err)
	}
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 1}); err != ErrLogFailed {
		t.Fatalf("poisoned schema append returned %v, want ErrLogFailed", err)
	}
}

func TestClosedLogRefusesAppends(t *testing.T) {
	l, err := Open(t.TempDir(), 1, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, testRecords(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommits(0, testRecords(2, 1)); err != ErrLogClosed {
		t.Fatalf("append after Close returned %v, want ErrLogClosed", err)
	}
	if err := l.AppendTable(TableRecord{Name: "t", Rows: 1}); err != ErrLogClosed {
		t.Fatalf("schema append after Close returned %v, want ErrLogClosed", err)
	}
}

func TestPoisonedLogRefusesCheckpoint(t *testing.T) {
	l, err := Open(t.TempDir(), 1, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.failed.Store(true)
	err = l.WriteCheckpoint(1, 0, func(*CheckpointWriter) error { return nil })
	if err != ErrLogFailed {
		t.Fatalf("checkpoint on poisoned log returned %v, want ErrLogFailed", err)
	}
}
