// Package wal is the durability subsystem of AnKerDB: a per-commit-
// shard write-ahead log with group-commit fsync batching, an append-
// only schema log, and snapshot-driven checkpoints that truncate the
// log (checkpoint.go).
//
// Layout under the durability directory:
//
//	schema.log                 table-creation records, never truncated
//	wal/shardNNN-SSSSSSSS.wal  commit redo segments, one series per
//	                           commit shard, rotated at checkpoints
//	checkpoint-<ts>.ckpt       the newest checkpoint (older ones and
//	                           crash-orphaned temporaries are removed)
//
// The append path mirrors the engine's group-commit pipeline: the
// batch leader hands the whole batch's redo records to AppendCommits,
// which issues a single write and — under the default SyncGroup policy
// — a single fsync for the group, so durability costs amortize across
// a batch exactly like the shard lock acquisition does.
//
// Shard segments hold two record kinds, tagged by their first payload
// byte: commit redo records and bulk-load chunk records (timestamp-less
// time-zero state, see LoadRecord). Every record is framed with its
// length and a CRC32 of its payload, so replay is torn-tail tolerant:
// a crash mid-append corrupts at most the trailing frame of one shard
// segment, and replay stops cleanly at the last intact record. All
// replay — segments and checkpoint bodies alike — streams through
// fixed-size buffers (an incremental CRC runs over checkpoint bodies),
// so restart memory is O(chunk) regardless of database size.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ankerdb/internal/fault"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncGroup (the default) fsyncs once per group-commit batch:
	// every transaction is durable when its Commit returns, at one
	// fsync per shard-lock acquisition.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs after every individual record, forgoing the
	// group amortisation — the strictest and slowest policy.
	SyncAlways
	// SyncNone never fsyncs on the commit path; records reach the OS
	// page cache only. A clean Close still syncs, so only crashes (not
	// shutdowns) can lose tail records.
	SyncNone
)

// String implements fmt.Stringer with the option-surface spellings.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "groupOnly"
	}
}

// Log is one durability directory: per-shard segment series, the
// schema log, and the checkpoint lifecycle. Appends to different
// shards proceed in parallel; appends to one shard serialise on that
// shard's mutex, which the engine's commit pipeline already guarantees
// by appending under the shard commit lock.
// ErrLogFailed is returned by every append after a WAL write or sync
// error: once a record may have been lost, continuing to append would
// let later commits become durable on top of a hole, so the log
// poisons itself and the engine stops accepting commits instead of
// silently running without durability.
var ErrLogFailed = errors.New("wal: log failed, refusing further appends (durability can no longer be guaranteed)")

// ErrLogClosed is returned by appends racing Close: a segment created
// after Close would never be synced or closed.
var ErrLogClosed = errors.New("wal: log closed")

// ErrCorruptWAL is the sentinel every unrecoverable WAL defect matches
// under errors.Is: a segment with an unsupported header, or a frame
// whose CRC passed but whose payload does not decode. A torn tail is
// NOT corruption — replay tolerates it and reports it via TailBytes.
var ErrCorruptWAL = errors.New("wal: corrupt write-ahead log")

// ErrCorruptCheckpoint is the sentinel every checkpoint defect matches
// under errors.Is: bad header, missing trailer, body/seal checksum
// mismatch, or a body that does not parse. A present-but-corrupt
// checkpoint fails recovery outright — the WAL below its timestamp is
// already truncated, so falling back would silently lose data.
var ErrCorruptCheckpoint = errors.New("wal: corrupt checkpoint")

// CorruptError carries the locus of a corruption: which file, at what
// byte offset (-1 when the offset is not known), and what was wrong.
// It unwraps to ErrCorruptWAL or ErrCorruptCheckpoint.
type CorruptError struct {
	Sentinel error  // ErrCorruptWAL or ErrCorruptCheckpoint
	File     string // path of the corrupt file
	Offset   int64  // byte offset of the defect, -1 if unknown
	Detail   string
}

func (e *CorruptError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("%v: %s: %s", e.Sentinel, e.File, e.Detail)
	}
	return fmt.Sprintf("%v: %s at offset %d: %s", e.Sentinel, e.File, e.Offset, e.Detail)
}

func (e *CorruptError) Unwrap() error { return e.Sentinel }

func corruptWAL(file string, off int64, format string, args ...any) error {
	return &CorruptError{Sentinel: ErrCorruptWAL, File: file, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

func corruptCkpt(file string, off int64, format string, args ...any) error {
	return &CorruptError{Sentinel: ErrCorruptCheckpoint, File: file, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

type Log struct {
	dir    string
	fs     fault.FS
	policy SyncPolicy
	shards []*shardLog
	failed atomic.Bool // poisoned by the first append error
	closed atomic.Bool // set by Close before it syncs the files

	bytes   atomic.Uint64 // record bytes appended (WAL + schema log)
	records atomic.Uint64 // commit + load records appended to shard segments
	fsyncs  atomic.Uint64 // fsyncs issued (segments, schema log, checkpoints)

	// tailBytes sums, across every file replay streamed, the bytes
	// between the last intact frame and the end of the file: the torn
	// or unsynced tail recovery discarded. Zero on a clean shutdown.
	tailBytes atomic.Uint64

	// recoveryPeak is the high-water mark of transient buffer bytes the
	// streaming recovery readers held (bufio windows + the largest
	// record frame): the evidence that restart memory is O(chunk), not
	// O(DB). Retained recovered state (tables, dictionaries) is not
	// counted — it exists with or without recovery.
	recoveryPeak atomic.Uint64

	// OnSeal, when set (before the log is shared), is called each time
	// TruncateBelow seals a shard's active segment, with the shard id,
	// the record count, and the newest commit timestamp the segment
	// holds. It runs with the shard's append lock held, so it must be
	// cheap and must not call back into the log.
	OnSeal func(shard, records int, lastTS uint64)

	// OnAppend, when set (before the log is shared), is called once per
	// shard-segment record after its append is as durable as the policy
	// promises, still under the shard's append lock and before the commit
	// pipeline publishes the batch's timestamps: ts is the commit
	// timestamp, 0 for a load chunk, and payload the record's bytes as
	// logged — a capped sub-slice of a frame the log never reuses, so the
	// hook may keep it. The replication publisher stages these bytes
	// verbatim; like OnSeal the hook must be cheap and must not call back
	// into the log.
	OnAppend func(ts uint64, payload []byte)

	// OnSchema is called by the schema-log appends (AppendTable,
	// AppendIndexDDL, AppendTableDDL) with each record's encoded payload
	// once it is durable, under the schema lock. Payload ownership
	// passes to the hook; decode with DecodeSchemaPayload. seq is the
	// record's position in the schema log (records appended before it),
	// the key replicas use to apply each schema record exactly once when
	// a bootstrap's file replay overlaps the live stream.
	OnSchema func(seq uint64, payload []byte)

	schemaMu sync.Mutex
	schema   fault.File
	// schemaSeq counts schema-log records: records already in the file
	// at open (set by the ReplaySchemaDDL full pass) plus records
	// appended since. Guarded by schemaMu.
	schemaSeq uint64

	// sealedMax maps closed segment paths to the newest commit
	// timestamp they contain, the input to checkpoint truncation. It is
	// populated by replay (previous runs' segments) and by sealing
	// (this run's segments).
	sealedMu  sync.Mutex
	sealedMax map[string]uint64
}

// shardLog is one shard's active segment. Segments are created lazily
// on first append and sealed (closed and registered for truncation) by
// TruncateBelow.
type shardLog struct {
	shard int

	mu      sync.Mutex
	f       fault.File
	path    string
	seq     int // newest segment sequence number used or found on disk
	lastTS  uint64
	records int
}

// Open opens (creating if necessary) the durability directory for the
// given commit shard count. Existing segments are left untouched —
// fresh appends always start a new segment above every recovered
// sequence number — and a temporary checkpoint orphaned by a crash is
// removed.
func Open(dir string, shards int, policy SyncPolicy) (*Log, error) {
	return OpenFS(dir, shards, policy, fault.OS)
}

// OpenFS is Open with an explicit file system — the fault-injection
// seam. Production code uses Open (the real FS); the crash harness
// passes a fault.Scripted to crash, tear, or fsync-lie the log's disk
// on a seeded schedule. A nil fs means the real FS.
func OpenFS(dir string, shards int, policy SyncPolicy, fs fault.FS) (*Log, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("wal: non-positive shard count %d", shards)
	}
	if fs == nil {
		fs = fault.OS
	}
	if err := fs.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, err
	}
	schema, err := fs.OpenFile(filepath.Join(dir, "schema.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, fs: fs, policy: policy, schema: schema, sealedMax: map[string]uint64{}}
	// The schema log is the directory's root of trust: every segment
	// and checkpoint record addresses tables by schema-log position.
	// Its creation (and the wal/ subdirectory's) must outlive a crash
	// before anything can depend on it, so the root directory entry is
	// fsynced here — segment and checkpoint paths sync their own
	// directories at each use, but nothing else covers this one.
	if err := l.syncDir(dir); err != nil {
		_ = schema.Close()
		return nil, err
	}
	if err := l.discardOrphans(); err != nil {
		_ = schema.Close()
		return nil, err
	}
	segs, err := l.segments()
	if err != nil {
		_ = schema.Close()
		return nil, err
	}
	maxSeq := map[int]int{}
	for _, sg := range segs {
		if sg.seq > maxSeq[sg.shard] {
			maxSeq[sg.shard] = sg.seq
		}
	}
	for i := 0; i < shards; i++ {
		l.shards = append(l.shards, &shardLog{shard: i, seq: maxSeq[i]})
	}
	_ = fs.Remove(l.tmpCheckpointPath())
	return l, nil
}

// errSchemaNonEmpty is the sentinel discardOrphans uses to stop the
// schema scan at the first intact record.
var errSchemaNonEmpty = errors.New("wal: schema log has records")

// discardOrphans removes shard segments and checkpoints left in a
// directory whose schema log holds no intact record. Commit records
// and checkpoint sections address tables by schema-log position, and
// with no durable schema records those positions belong to whatever
// schema the reopened database creates next — replaying the orphaned
// files on a later Open would resurrect their rows into the new
// tables. Schema appends are fsynced before any dependent record is
// written, so this state is the residue of a crash on a disk that
// lied about durability; recovery treats it as a crash before the
// schema fsync: the dependent files never happened.
func (l *Log) discardOrphans() error {
	err := l.ReplaySchemaDDL(
		func(TableRecord) error { return errSchemaNonEmpty },
		func(IndexDDLRecord) error { return errSchemaNonEmpty },
		func(TableDDLRecord) error { return errSchemaNonEmpty })
	if errors.Is(err, errSchemaNonEmpty) {
		return nil
	}
	if err != nil {
		// A record that passed its CRC but failed to decode is durable
		// content; keep the files and let recovery report the error.
		return nil
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, sg := range segs {
		if err := l.fs.Remove(sg.path); err != nil {
			return err
		}
	}
	cks, err := l.checkpoints()
	if err != nil {
		return err
	}
	for _, ck := range cks {
		if err := l.fs.Remove(ck.path); err != nil {
			return err
		}
	}
	if len(segs) == 0 && len(cks) == 0 {
		return nil
	}
	// The removals must be durable before the reopened database appends
	// schema records: a crash that resurrected the segments after new
	// tables claimed their slots would replay them into those tables.
	if err := l.syncDir(filepath.Join(l.dir, "wal")); err != nil {
		return err
	}
	return l.syncDir(l.dir)
}

// Policy returns the configured sync policy.
func (l *Log) Policy() SyncPolicy { return l.policy }

// Bytes returns the cumulative record bytes appended, plus the bytes
// replayed by recovery — the tail a checkpoint has not yet covered
// counts as growth regardless of which process wrote it.
func (l *Log) Bytes() uint64 { return l.bytes.Load() }

// Records returns the cumulative count of commit and load records
// appended to shard segments, plus the records replayed by recovery —
// together with Bytes, the input to automatic checkpoint scheduling.
func (l *Log) Records() uint64 { return l.records.Load() }

// Fsyncs returns the cumulative fsync count.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// RecoveryPeakBytes returns the high-water mark of transient buffer
// bytes held while streaming this log's checkpoint and segments during
// recovery (zero if no replay ran).
func (l *Log) RecoveryPeakBytes() uint64 { return l.recoveryPeak.Load() }

// TailBytes returns the total bytes replay discarded past the last
// intact frame of each file it streamed — the torn or never-synced
// tails a crash left behind. Zero after a clean shutdown.
func (l *Log) TailBytes() uint64 { return l.tailBytes.Load() }

// notePeak raises the recovery peak to at least n.
func (l *Log) notePeak(n uint64) {
	for {
		cur := l.recoveryPeak.Load()
		if n <= cur || l.recoveryPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// AppendCommits appends a batch of commit records to shard's segment:
// one write per batch and, under SyncGroup, one fsync per batch (under
// SyncAlways, one write and one fsync per record). It returns only
// after the records are as durable as the policy promises, so the
// commit pipeline may acknowledge the batch when it returns. Any
// write or sync error poisons the log (see ErrLogFailed). Each record
// is encoded once, in place behind its frame header, into one buffer
// of the batch's exact size.
func (l *Log) AppendCommits(shard int, recs []CommitRecord) error {
	if len(recs) == 0 {
		return nil
	}
	n := 0
	for _, r := range recs {
		n += 8 + r.size()
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = appendFramed(buf, r.encode)
	}
	if l.policy != SyncAlways {
		return l.appendFrames(shard, buf)
	}
	for len(buf) > 0 {
		var f []byte
		f, _, buf = splitFrame(buf)
		if err := l.appendFrames(shard, f); err != nil {
			return err
		}
	}
	return nil
}

// AppendLoads appends a bulk load's chunk records to shard's segment:
// one write per chunk and one fsync for the whole load under any
// policy but SyncNone — a bulk load is one logical operation, so it gets one
// durability point, like a group-commit batch. Load records carry no
// timestamp and therefore never extend the segment's truncation
// watermark: once a checkpoint captures the loaded data, a segment
// holding only loads is reclaimed. The caller must serialise loads
// against checkpoints (the engine holds its checkpoint mutex), so a
// checkpoint can never capture half a load and then truncate the rest.
// Every chunk is framed into its own buffer, which OnAppend may keep,
// before the first write: until the append returns the log holds one
// framed copy of the whole load.
func (l *Log) AppendLoads(shard int, recs []LoadRecord) error {
	if len(recs) == 0 {
		return nil
	}
	frames := make([][]byte, len(recs))
	for i, r := range recs {
		frames[i] = appendFramed(nil, r.encode)
	}
	return l.appendFrames(shard, frames...)
}

// AppendEncoded appends one record payload as received — a commit
// record at commit timestamp ts, or a load chunk at ts 0 — with the
// durability of a one-record AppendCommits or a one-chunk AppendLoads.
// A replica logs the primary's bytes this way instead of re-encoding
// the record it decoded. The payload is copied into its frame, so it
// need only be valid for the call; one whose kind or timestamp
// disagrees with ts is refused before anything is written.
func (l *Log) AppendEncoded(shard int, ts uint64, payload []byte) error {
	if got, ok := recordTS(payload); !ok || got != ts {
		return fmt.Errorf("wal: payload is not a segment record at ts %d", ts)
	}
	return l.appendFrames(shard, appendFrame(nil, payload))
}

// appendFrames is every shard-segment append: under the shard's append
// lock it writes each buffer of whole frames with one write, then
// fsyncs once unless SyncNone, poisoning the log on any error. Once
// durable, every commit record advances the segment's truncation
// watermark (load chunks never do) and every record reaches OnAppend.
func (l *Log) appendFrames(shard int, bufs ...[]byte) error {
	if err := l.usable(); err != nil {
		return err
	}
	s := l.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := l.ensureSegment(s); err != nil {
		return l.poison(err)
	}
	for _, b := range bufs {
		if _, err := s.f.Write(b); err != nil {
			return l.poison(err)
		}
		l.bytes.Add(uint64(len(b)))
	}
	if l.policy != SyncNone {
		if err := l.sync(s.f); err != nil {
			return l.poison(err)
		}
	}
	var n uint64
	for _, b := range bufs {
		for rest := b; len(rest) > 0; n++ {
			var p []byte
			_, p, rest = splitFrame(rest)
			ts, _ := recordTS(p)
			if ts > 0 {
				s.lastTS, s.records = ts, s.records+1
			}
			if l.OnAppend != nil {
				l.OnAppend(ts, p)
			}
		}
	}
	l.records.Add(n)
	return nil
}

// poison marks the log failed and passes err through.
func (l *Log) poison(err error) error {
	l.failed.Store(true)
	return err
}

// usable reports (as an error) whether the log still accepts appends
// and checkpoints.
func (l *Log) usable() error {
	if l.failed.Load() {
		return ErrLogFailed
	}
	if l.closed.Load() {
		return ErrLogClosed
	}
	return nil
}

// Failed reports whether the log has been poisoned by an append error.
func (l *Log) Failed() bool { return l.failed.Load() }

// appendSchema frames payload into the schema log, fsyncs it under any
// policy but SyncNone (DDL is rare, so it always gets its own
// durability point), and hands the payload to OnSchema once durable.
func (l *Log) appendSchema(payload []byte) error {
	if err := l.usable(); err != nil {
		return err
	}
	l.schemaMu.Lock()
	defer l.schemaMu.Unlock()
	buf := appendFrame(nil, payload)
	if _, err := l.schema.Write(buf); err != nil {
		return l.poison(err)
	}
	l.bytes.Add(uint64(len(buf)))
	if l.policy != SyncNone {
		if err := l.sync(l.schema); err != nil {
			return l.poison(err)
		}
	}
	seq := l.schemaSeq
	l.schemaSeq++
	if l.OnSchema != nil {
		l.OnSchema(seq, payload)
	}
	return nil
}

// AppendTable appends a table-creation record to the schema log. DDL
// is rare, so it is fsynced regardless of policy (except SyncNone).
func (l *Log) AppendTable(rec TableRecord) error {
	return l.appendSchema(rec.encode(nil))
}

// AppendIndexDDL appends an online CreateIndex/DropIndex record to the
// schema log, fsynced like table records (DDL is rare). The schema log
// is never truncated, so index existence survives every checkpoint.
func (l *Log) AppendIndexDDL(rec IndexDDLRecord) error {
	return l.appendSchema(rec.encode(nil))
}

// AppendTableDDL appends a DropTable/Truncate marker record to the
// schema log, fsynced like the other DDL records. Recovery replays the
// schema log in order, so the drop or truncate applies exactly once,
// after the creation it refers to and before any later re-creation of
// the same name.
func (l *Log) AppendTableDDL(rec TableDDLRecord) error {
	return l.appendSchema(rec.encode(nil))
}

// replayBufSize is the bufio window streaming replay reads through:
// together with the largest single record frame it bounds recovery's
// transient memory, independent of segment or checkpoint size.
const replayBufSize = 1 << 16

// segMagic is the versioned header every shard segment starts with.
// Replay refuses a segment whose header does not match — a clear
// "unsupported format" failure instead of misparsing records when the
// record encoding changes (the kind-byte revision bumped this to 2,
// the row-op commit record kind to 3). A missing or short header is a
// segment created but torn before its first write and simply holds no
// records.
var segMagic = []byte("ANKWSEG3")

// frameScanner streams length+CRC framed records out of a reader,
// reusing one payload buffer. It stops (ok=false) at a clean EOF and
// at a torn or corrupt tail alike. off is the byte offset just past the
// last intact frame; end is the offset the stream ends at. A length
// prefix reaching past end is a torn frame, refused before anything is
// allocated for it, so the buffer never outgrows the bytes present.
type frameScanner struct {
	br       *bufio.Reader
	buf      []byte
	off, end int64
}

// next returns the next intact frame payload. The returned slice is
// only valid until the following call.
func (fs *frameScanner) next() (payload []byte, ok bool) {
	var hdr [8]byte
	if _, err := io.ReadFull(fs.br, hdr[:]); err != nil {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if uint64(n) > maxFrameLen || fs.off+8+int64(n) > fs.end {
		return nil, false
	}
	if uint64(n) > uint64(cap(fs.buf)) {
		fs.buf = make([]byte, n)
	}
	payload = fs.buf[:n]
	if _, err := io.ReadFull(fs.br, payload); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, false
	}
	fs.off += 8 + int64(n)
	return payload, true
}

// replayFile streams path's intact frames to fn (with each frame's
// starting byte offset), stopping cleanly at the first torn or corrupt
// frame, and returns with the file closed. Bytes past the last intact
// frame are counted into the discarded-tail total. With withHeader
// (shard segments), the segMagic header is validated first: a
// complete-but-wrong header is ErrCorruptWAL, a short one means the
// segment was torn before its first record. Memory held is the bufio
// window plus the largest intact frame, at most the file's size —
// recorded in the recovery peak.
func (l *Log) replayFile(path string, withHeader bool, fn func(off int64, payload []byte) error) error {
	f, err := l.fs.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, replayBufSize)
	var base int64
	if withHeader {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if size > 0 {
				l.tailBytes.Add(uint64(size))
			}
			return nil // empty or torn header: no durable records
		}
		if string(hdr[:]) != string(segMagic) {
			return corruptWAL(path, 0, "unsupported format (header %q, want %q)", hdr[:], segMagic)
		}
		base = int64(len(segMagic))
	}
	fs := &frameScanner{br: br, end: size - base}
	for {
		start := base + fs.off
		payload, ok := fs.next()
		if !ok {
			l.notePeak(replayBufSize + uint64(cap(fs.buf)))
			if consumed := base + fs.off; size > consumed {
				l.tailBytes.Add(uint64(size - consumed))
			}
			return nil
		}
		if err := fn(start, payload); err != nil {
			return err
		}
	}
}

// ReplaySchemaDDL streams every schema-log record in append order,
// stopping at a torn tail: table records to onTable, index-DDL records
// to onIndex and table-DDL markers (DropTable/Truncate) to onDDL, so a
// replayer applying all three in sequence reconstructs exactly the
// schema alive when the log was last written — the tables in original
// index order, the secondary indexes then alive, each DDL exactly once.
func (l *Log) ReplaySchemaDDL(onTable func(TableRecord) error, onIndex func(IndexDDLRecord) error, onDDL func(TableDDLRecord) error) error {
	path := filepath.Join(l.dir, "schema.log")
	if _, err := l.fs.Stat(path); os.IsNotExist(err) {
		return nil
	}
	var count uint64
	err := l.replayFile(path, false, func(off int64, payload []byte) error {
		count++
		// CRC passed, so a malformed payload below is real corruption.
		switch {
		case isTableDDL(payload):
			rec, err := decodeTableDDL(payload)
			if err != nil {
				return corruptWAL(path, off, "%v", err)
			}
			return onDDL(rec)
		case isIndexDDL(payload):
			rec, err := decodeIndexDDL(payload)
			if err != nil {
				return corruptWAL(path, off, "%v", err)
			}
			return onIndex(rec)
		default:
			rec, err := decodeTable(payload)
			if err != nil {
				return corruptWAL(path, off, "%v", err)
			}
			return onTable(rec)
		}
	})
	if err == nil {
		l.noteSchemaCount(count)
	}
	return err
}

// noteSchemaCount records that a full schema-log pass observed count
// records, seeding the append sequence for logs opened over an
// existing directory (appendSchema advanced the counter for any record
// appended during the pass, so take the max).
func (l *Log) noteSchemaCount(count uint64) {
	l.schemaMu.Lock()
	if count > l.schemaSeq {
		l.schemaSeq = count
	}
	l.schemaMu.Unlock()
}

// ReplayCommits streams every durable shard-segment record, shard by
// shard in segment order: bulk-load chunks to onLoad, commit records to
// onCommit. Order across shards is arbitrary — callers must apply
// commit records idempotently by commit timestamp (newer-wins per row)
// and load records only to rows no commit has stamped (write timestamp
// zero), which makes replay insensitive to both cross-shard ordering
// and repetition. Each segment is read in O(replayBufSize) memory up to
// its first bad frame (torn tail) and registered for later checkpoint
// truncation by its newest commit timestamp.
func (l *Log) ReplayCommits(onLoad func(LoadRecord) error, onCommit func(CommitRecord) error) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, sg := range segs {
		var maxTS uint64
		err := l.replayFile(sg.path, true, func(off int64, payload []byte) error {
			if len(payload) == 0 {
				return corruptWAL(sg.path, off, "empty record")
			}
			// Replayed records seed the growth counters: the tail that
			// survived this recovery counts toward the auto-checkpoint
			// thresholds exactly like fresh appends, so a large tail is
			// checkpointed away soon after restart instead of being
			// re-replayed on every subsequent Open.
			l.bytes.Add(uint64(len(payload) + 8))
			l.records.Add(1)
			switch payload[0] {
			case recKindLoad:
				rec, err := decodeLoad(payload)
				if err != nil {
					return corruptWAL(sg.path, off, "%v", err)
				}
				return onLoad(rec)
			case recKindCommit, recKindRowCommit:
				rec, err := decodeCommit(payload)
				if err != nil {
					return corruptWAL(sg.path, off, "%v", err)
				}
				if rec.TS > maxTS {
					maxTS = rec.TS
				}
				return onCommit(rec)
			default:
				return corruptWAL(sg.path, off, "unknown record kind %d", payload[0])
			}
		})
		if err != nil {
			return err
		}
		l.sealedMu.Lock()
		l.sealedMax[sg.path] = maxTS
		l.sealedMu.Unlock()
	}
	return nil
}

// TruncateBelow seals every shard's active segment (future appends
// start fresh segments) and deletes sealed segments whose newest
// record timestamp is at or below ts — their contents are fully
// covered by the checkpoint at ts.
func (l *Log) TruncateBelow(ts uint64) error {
	for _, s := range l.shards {
		s.mu.Lock()
		if s.f != nil {
			err := s.f.Close()
			l.sealedMu.Lock()
			l.sealedMax[s.path] = s.lastTS
			l.sealedMu.Unlock()
			if l.OnSeal != nil {
				l.OnSeal(s.shard, s.records, s.lastTS)
			}
			s.f = nil
			if err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	l.sealedMu.Lock()
	defer l.sealedMu.Unlock()
	var firstErr error
	for path, max := range l.sealedMax {
		if max <= ts {
			if err := l.fs.Remove(path); err != nil && firstErr == nil {
				firstErr = err
			}
			delete(l.sealedMax, path)
		}
	}
	if err := l.syncDir(filepath.Join(l.dir, "wal")); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close syncs and closes every open file and refuses appends from
// then on (ErrLogClosed). Even under SyncNone a clean Close makes the
// log durable; only a crash can lose its tail.
func (l *Log) Close() error {
	l.closed.Store(true)
	var firstErr error
	for _, s := range l.shards {
		s.mu.Lock()
		if s.f != nil {
			if err := s.f.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := s.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.f = nil
		}
		s.mu.Unlock()
	}
	l.schemaMu.Lock()
	if l.schema != nil {
		if err := l.schema.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := l.schema.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		l.schema = nil
	}
	l.schemaMu.Unlock()
	return firstErr
}

// ensureSegment opens the shard's next segment if none is active and
// writes the versioned header. The caller holds s.mu. The closed
// re-check matters: an append that passed the entry check can block on
// s.mu while Close drains the shard — without it, the append would
// create a segment Close never syncs.
func (l *Log) ensureSegment(s *shardLog) error {
	if l.closed.Load() {
		return ErrLogClosed
	}
	if s.f != nil {
		return nil
	}
	s.seq++
	s.path = filepath.Join(l.dir, "wal", segmentName(s.shard, s.seq))
	f, err := l.fs.OpenFile(s.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segMagic); err != nil {
		_ = f.Close()
		return err
	}
	s.f = f
	s.lastTS, s.records = 0, 0
	if l.policy == SyncNone {
		return nil
	}
	return l.syncDir(filepath.Join(l.dir, "wal"))
}

func (l *Log) sync(f fault.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	return nil
}

// syncDir makes directory-entry changes (segment creation, removal,
// checkpoint rename) durable.
func (l *Log) syncDir(dir string) error {
	if err := l.fs.SyncDir(dir); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	return nil
}

func segmentName(shard, seq int) string {
	return fmt.Sprintf("shard%03d-%08d.wal", shard, seq)
}

type segref struct {
	path       string
	shard, seq int
}

// segments lists the WAL segment files sorted by (shard, seq).
func (l *Log) segments() ([]segref, error) {
	ents, err := l.fs.ReadDir(filepath.Join(l.dir, "wal"))
	if err != nil {
		return nil, err
	}
	var out []segref
	for _, e := range ents {
		var shard, seq int
		if n, _ := fmt.Sscanf(e.Name(), "shard%03d-%08d.wal", &shard, &seq); n != 2 {
			continue
		}
		out = append(out, segref{path: filepath.Join(l.dir, "wal", e.Name()), shard: shard, seq: seq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].shard != out[j].shard {
			return out[i].shard < out[j].shard
		}
		return out[i].seq < out[j].seq
	})
	return out, nil
}
