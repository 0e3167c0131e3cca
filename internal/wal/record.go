package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ankerdb/internal/binenc"
)

// RedoWrite is one durable write of a committed transaction: enough to
// re-apply the write during recovery. VARCHAR writes additionally carry
// the decoded string (HasStr), because dictionary codes are only
// meaningful relative to the dictionary state the checkpoint preserved;
// replay re-encodes the string through the recovered dictionary.
type RedoWrite struct {
	Table  int
	Col    int
	Row    int
	Val    int64
	Str    string
	HasStr bool
}

// RowOp is one durable row birth or death: an insert (Del false)
// stamps the row's birth timestamp with the record's commit timestamp
// at replay, a delete (Del true) its death timestamp.
type RowOp struct {
	Table int
	Row   int
	Del   bool
}

// CommitRecord is the redo record of one committed transaction: its
// commit timestamp, every write it materialised and every row it
// birthed or killed (Ops, present only in row-op records — kind 3).
// Replay is idempotent by commit timestamp: a write is re-applied only
// when its record's timestamp is newer than the row's current write
// timestamp, and recovery buffers row ops and applies them in
// timestamp order per row — so records may be replayed in any order
// and any number of times.
type CommitRecord struct {
	TS     uint64
	Writes []RedoWrite
	Ops    []RowOp
}

// WAL-segment record kinds: the first payload byte of every framed
// record in a shard segment. The schema log holds only table records
// and carries no kind byte. Kind 3 (ANKWSEG3) extends commit records
// with row ops; commits without row ops keep the kind-1 form.
const (
	recKindCommit    uint8 = 1
	recKindLoad      uint8 = 2
	recKindRowCommit uint8 = 3
)

// LoadRecord is one chunk of a durable bulk load (DB.Load/LoadStrings):
// a contiguous window of values for one column, written outside any
// transaction. Loads carry no timestamp — they are the state at time
// zero — so replay applies a loaded value only to rows whose write
// timestamp is still zero: any committed write (always stamped > 0)
// wins over a load regardless of replay order, and re-replaying a load
// over checkpoint-recovered rows is a no-op or rewrites the same
// values. VARCHAR chunks carry the decoded strings (HasStrs), re-encoded
// through the recovered dictionary at replay, exactly like commit
// records.
type LoadRecord struct {
	Table   int
	Col     int
	Start   int // first row of the chunk
	Vals    []int64
	Strs    []string
	HasStrs bool
}

// ColumnDef mirrors the storage schema column declaration in a form
// the wal package can persist without importing the storage package.
// Index is the declared secondary-index kind (0 = none); it rides the
// table record as a trailing extension, so logs written before index
// support decode with Index 0 everywhere.
type ColumnDef struct {
	Name  string
	Type  uint8
	Index uint8
}

// TableRecord is one schema-log entry: a table created during the
// log's lifetime. The schema log is append-only and never truncated
// (tables cannot be dropped), so replaying it in full recreates every
// table in original index order before checkpoint and WAL data are
// loaded into them.
type TableRecord struct {
	Name    string
	Rows    int
	Columns []ColumnDef
}

// maxFrameLen bounds a frame payload; larger lengths mark corruption.
const maxFrameLen = 1 << 30

// appendFrame appends payload to dst framed as
// [len u32][crc32(payload) u32][payload]. The length-before-content
// framing plus the checksum is what makes replay torn-tail tolerant: a
// crash mid-append leaves a frame that fails the length or CRC check
// and replay stops cleanly at the previous record.
func appendFrame(dst, payload []byte) []byte {
	return appendFramed(dst, func(b []byte) []byte { return append(b, payload...) })
}

// appendFramed is appendFrame over the payload encode appends, encoded
// in place behind its header: a record's frame is its only encoding.
func appendFramed(dst []byte, encode func([]byte) []byte) []byte {
	start := len(dst)
	b := encode(append(dst, make([]byte, 8)...))
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-8))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(b[start+8:]))
	return b
}

// splitFrame cuts the first of the whole frames in b: the frame, its
// payload capped at the frame's end, and the frames after it.
func splitFrame(b []byte) (frame, payload, rest []byte) {
	end := 8 + int(binary.LittleEndian.Uint32(b))
	return b[:end], b[8:end:end], b[end:]
}

// recordTS is a shard-segment payload's commit timestamp, 0 for a load
// chunk; ok is false for a payload of neither kind.
func recordTS(p []byte) (ts uint64, ok bool) {
	switch {
	case len(p) > 0 && p[0] == recKindLoad:
		return 0, true
	case len(p) >= 9 && (p[0] == recKindCommit || p[0] == recKindRowCommit):
		return binary.LittleEndian.Uint64(p[1:]), true
	}
	return 0, false
}

// size is the exact length of r's payload, len(r.encode(nil)): a commit
// batch's frames are encoded into one buffer of their summed size.
func (r CommitRecord) size() int {
	n := 1 + 8 + 4 // kind, TS, write count
	if len(r.Ops) > 0 {
		n += 4 + 9*len(r.Ops)
	}
	for _, w := range r.Writes {
		n += 4 + 4 + 4 + 8 + 1
		if w.HasStr {
			n += 4 + len(w.Str)
		}
	}
	return n
}

// encode serialises the commit record payload (framing is the
// caller's). Records with row ops take the kind-3 layout — timestamp,
// ops, writes — so one frame carries the whole transaction and a torn
// tail can never split a commit's ops from its writes.
func (r CommitRecord) encode(dst []byte) []byte {
	e := binenc.Encoder{B: dst}
	if len(r.Ops) > 0 {
		e.U8(recKindRowCommit)
		e.U64(r.TS)
		e.U32(uint32(len(r.Ops)))
		for _, op := range r.Ops {
			e.U32(uint32(op.Table))
			e.U32(uint32(op.Row))
			e.Bool(op.Del)
		}
	} else {
		e.U8(recKindCommit)
		e.U64(r.TS)
	}
	e.U32(uint32(len(r.Writes)))
	for _, w := range r.Writes {
		e.U32(uint32(w.Table))
		e.U32(uint32(w.Col))
		e.U32(uint32(w.Row))
		e.U64(uint64(w.Val))
		if w.HasStr {
			e.U8(1)
			e.Str(w.Str)
		} else {
			e.U8(0)
		}
	}
	return e.B
}

func decodeCommit(payload []byte) (CommitRecord, error) {
	d := binenc.Decoder{B: payload}
	kind := d.U8()
	if d.Err == nil && kind != recKindCommit && kind != recKindRowCommit {
		return CommitRecord{}, fmt.Errorf("wal: record kind %d, want commit (%d or %d)", kind, recKindCommit, recKindRowCommit)
	}
	rec := CommitRecord{TS: d.U64()}
	if kind == recKindRowCommit {
		nops := d.U32()
		if d.Err == nil && uint64(nops) > uint64(len(payload)) {
			return rec, fmt.Errorf("wal: commit record claims %d row ops in %d bytes", nops, len(payload))
		}
		for i := 0; i < int(nops); i++ {
			op := RowOp{Table: int(d.U32()), Row: int(d.U32())}
			op.Del = d.U8() != 0
			rec.Ops = append(rec.Ops, op)
		}
	}
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(payload)) {
		// A write takes at least one payload byte; more writes than
		// bytes is corruption, not a huge record.
		return rec, fmt.Errorf("wal: commit record claims %d writes in %d bytes", n, len(payload))
	}
	for i := 0; i < int(n); i++ {
		w := RedoWrite{
			Table: int(d.U32()),
			Col:   int(d.U32()),
			Row:   int(d.U32()),
			Val:   int64(d.U64()),
		}
		if d.U8() != 0 {
			w.Str, w.HasStr = d.Str(), true
		}
		rec.Writes = append(rec.Writes, w)
	}
	return rec, d.Err
}

// encode serialises the load record payload.
func (r LoadRecord) encode(dst []byte) []byte {
	e := binenc.Encoder{B: dst}
	e.U8(recKindLoad)
	e.U32(uint32(r.Table))
	e.U32(uint32(r.Col))
	e.U32(uint32(r.Start))
	if r.HasStrs {
		e.U8(1)
		e.U32(uint32(len(r.Strs)))
		for _, s := range r.Strs {
			e.Str(s)
		}
	} else {
		e.U8(0)
		e.U32(uint32(len(r.Vals)))
		for _, v := range r.Vals {
			e.U64(uint64(v))
		}
	}
	return e.B
}

func decodeLoad(payload []byte) (LoadRecord, error) {
	d := binenc.Decoder{B: payload}
	if kind := d.U8(); d.Err == nil && kind != recKindLoad {
		return LoadRecord{}, fmt.Errorf("wal: record kind %d, want load (%d)", kind, recKindLoad)
	}
	rec := LoadRecord{
		Table: int(d.U32()),
		Col:   int(d.U32()),
		Start: int(d.U32()),
	}
	rec.HasStrs = d.U8() != 0
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(payload)) {
		// A value takes at least one payload byte; more values than
		// bytes is corruption, not a huge chunk.
		return rec, fmt.Errorf("wal: load record claims %d values in %d bytes", n, len(payload))
	}
	if rec.HasStrs {
		for i := 0; i < int(n); i++ {
			rec.Strs = append(rec.Strs, d.Str())
		}
	} else {
		for i := 0; i < int(n); i++ {
			rec.Vals = append(rec.Vals, int64(d.U64()))
		}
	}
	return rec, d.Err
}

// encode serialises the table record payload. The per-column index
// kinds trail the original layout so that pre-index schema logs stay
// decodable: a decoder that runs out of payload after the columns
// simply leaves every Index at 0.
func (r TableRecord) encode(dst []byte) []byte {
	e := binenc.Encoder{B: dst}
	e.Str(r.Name)
	e.U64(uint64(r.Rows))
	e.U32(uint32(len(r.Columns)))
	for _, c := range r.Columns {
		e.Str(c.Name)
		e.U8(c.Type)
	}
	for _, c := range r.Columns {
		e.U8(c.Index)
	}
	return e.B
}

func decodeTable(payload []byte) (TableRecord, error) {
	d := binenc.Decoder{B: payload}
	rec := TableRecord{Name: d.Str(), Rows: int(d.U64())}
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: table record claims %d columns in %d bytes", n, len(payload))
	}
	for i := 0; i < int(n); i++ {
		rec.Columns = append(rec.Columns, ColumnDef{Name: d.Str(), Type: d.U8()})
	}
	if d.Err == nil && len(d.B) >= len(rec.Columns) {
		// Trailing index-kind extension (absent in pre-index logs).
		for i := range rec.Columns {
			rec.Columns[i].Index = d.U8()
		}
	}
	return rec, d.Err
}

// indexDDLMarker distinguishes index-DDL records from table records in
// the shared schema log: a table record's payload begins with the u32
// length of the table name, which can never be 0xFFFFFFFF.
const indexDDLMarker uint32 = 0xFFFFFFFF

// IndexDDLRecord is one online CreateIndex (Drop false) or DropIndex
// (Drop true) appended to the schema log. Like table records these are
// never truncated: replaying the full schema log in order yields the
// set of indexes alive at crash time, whose *contents* recovery then
// rebuilds from the recovered column and visibility arrays (index
// entries themselves are deliberately not logged — see the trade
// documented in the root package's index_db.go).
type IndexDDLRecord struct {
	Table  string
	Column string
	Kind   uint8
	Drop   bool
}

func (r IndexDDLRecord) encode(dst []byte) []byte {
	e := binenc.Encoder{B: dst}
	e.U32(indexDDLMarker)
	e.Bool(r.Drop)
	e.Str(r.Table)
	e.Str(r.Column)
	e.U8(r.Kind)
	return e.B
}

func decodeIndexDDL(payload []byte) (IndexDDLRecord, error) {
	d := binenc.Decoder{B: payload}
	if m := d.U32(); d.Err == nil && m != indexDDLMarker {
		return IndexDDLRecord{}, fmt.Errorf("wal: index-DDL marker %#x, want %#x", m, indexDDLMarker)
	}
	rec := IndexDDLRecord{Drop: d.U8() != 0}
	rec.Table = d.Str()
	rec.Column = d.Str()
	rec.Kind = d.U8()
	return rec, d.Err
}

// isIndexDDL reports whether a schema-log payload is an index-DDL
// record (as opposed to a table record).
func isIndexDDL(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == indexDDLMarker
}

// tableDDLMarker distinguishes DropTable/Truncate records in the
// shared schema log; like the index-DDL marker it is impossible as a
// table-name length, so pre-DDL readers fail loudly instead of
// misparsing.
const tableDDLMarker uint32 = 0xFFFFFFFE

// Table-DDL operations.
const (
	// TableDDLDrop removes the table: its WAL records are skipped at
	// replay and its name becomes free for re-creation.
	TableDDLDrop uint8 = 1
	// TableDDLTruncate empties the table: every row committed before
	// the record is discarded at replay, the schema survives.
	TableDDLTruncate uint8 = 2
)

// TableDDLRecord is one DropTable (Op TableDDLDrop) or Truncate
// (Op TableDDLTruncate) appended to the schema log. The schema log is
// replayed in append order and never truncated, so the DDL applies
// exactly once, between the creation it follows and any later
// re-creation of the same name. TS is the oracle timestamp the DDL
// committed at; a truncate discards exactly the rows committed at or
// below it.
type TableDDLRecord struct {
	Name string
	Op   uint8
	TS   uint64
}

func (r TableDDLRecord) encode(dst []byte) []byte {
	e := binenc.Encoder{B: dst}
	e.U32(tableDDLMarker)
	e.U8(r.Op)
	e.Str(r.Name)
	e.U64(r.TS)
	return e.B
}

func decodeTableDDL(payload []byte) (TableDDLRecord, error) {
	d := binenc.Decoder{B: payload}
	if m := d.U32(); d.Err == nil && m != tableDDLMarker {
		return TableDDLRecord{}, fmt.Errorf("wal: table-DDL marker %#x, want %#x", m, tableDDLMarker)
	}
	rec := TableDDLRecord{Op: d.U8()}
	rec.Name = d.Str()
	rec.TS = d.U64()
	if d.Err == nil && rec.Op != TableDDLDrop && rec.Op != TableDDLTruncate {
		return rec, fmt.Errorf("wal: unknown table-DDL op %d", rec.Op)
	}
	return rec, d.Err
}

// isTableDDL reports whether a schema-log payload is a table-DDL
// (DropTable/Truncate) record.
func isTableDDL(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == tableDDLMarker
}
