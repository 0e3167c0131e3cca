package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// Checkpoint file layout (all integers little-endian):
//
//	"ANKCKPT3"                    8-byte magic
//	ts u64                        checkpoint timestamp (snapshot
//	                              generation timestamp)
//	ntables u32
//	per table (one "table section"):
//	  slot u32, name (u32 len + bytes), rows u64, ncols u32
//	  (slot is the table's schema-log position — the stable index
//	  recovery addresses tables by. Names alone are ambiguous once
//	  DropTable exists: a checkpoint written before a drop can
//	  coexist with a re-created table of the same name, and its
//	  section must load into the dropped incarnation's slot, not the
//	  new one's.)
//	  per column: rows raw u64 data words, rows raw u64 wts words
//	  rows raw u64 birth words, rows raw u64 death words (the
//	  visibility arrays of growable tables; rows is the table's
//	  captured capacity, which may exceed its created size)
//	  dict: u32 count, then count strings (u32 len + bytes)
//	crc u32                       CRC32 of everything above
//	"ANKCKPTE"                    8-byte trailer magic
//
// The dictionary comes AFTER the column words on purpose: the dict is
// append-only and codes are assigned when a write is staged, so a
// dictionary read after every column capture is a superset of the
// codes any captured word can hold — a VARCHAR commit racing the
// checkpoint can never leave a dangling code in the checkpointed
// columns.
//
// The file is written to a temporary name and atomically renamed, so a
// crash mid-checkpoint leaves the previous checkpoint authoritative;
// the trailer plus whole-file CRC reject any file that somehow ends up
// incomplete.
//
// The table sections are also the body of a replica bootstrap, streamed
// through NewCheckpointWriter into bounded wire frames and read back
// through NewCheckpointReader (the root package's writeTableSection /
// readTableSection serve file and wire alike). There the frames carry
// checksums and SnapBegin the timestamp and table count, so magic,
// header and seal stay file-only.

var (
	ckptMagic   = []byte("ANKCKPT3")
	ckptTrailer = []byte("ANKCKPTE")
)

const ckptTrailerLen = 4 + 8 // crc u32 + trailer magic

// CheckpointWriter streams a checkpoint's body. It implements
// io.Writer (all writes feed the running CRC), with helpers for the
// metadata fields; column words are streamed through the storage
// layer's serialization directly into it.
type CheckpointWriter struct {
	bw  *bufio.Writer
	crc hash.Hash32
	err error
}

// NewCheckpointWriter streams table sections into w. Call Flush after
// the last one.
func NewCheckpointWriter(w io.Writer) *CheckpointWriter {
	return &CheckpointWriter{bw: bufio.NewWriterSize(w, 1<<16), crc: crc32.NewIEEE()}
}

// Flush pushes buffered section bytes to the underlying writer.
func (w *CheckpointWriter) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Write implements io.Writer.
func (w *CheckpointWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.bw.Write(p)
	w.crc.Write(p[:n])
	w.err = err
	return n, err
}

func (w *CheckpointWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, _ = w.Write(b[:])
}

func (w *CheckpointWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = w.Write(b[:])
}

func (w *CheckpointWriter) str(s string) {
	w.u32(uint32(len(s)))
	_, _ = w.Write([]byte(s))
}

// BeginTable writes one table's header (identity and geometry): slot
// is the table's schema-log position, the index recovery resolves the
// section by. The caller must follow with exactly cols (data, wts)
// column-word streams of rows words each, then FinishTable.
func (w *CheckpointWriter) BeginTable(slot int, name string, rows, cols int) error {
	w.u32(uint32(slot))
	w.str(name)
	w.u64(uint64(rows))
	w.u32(uint32(cols))
	return w.err
}

// FinishTable writes the table's dictionary, closing its section. The
// dictionary must be read AFTER the last column capture (see the
// layout comment: post-capture dictionaries are supersets of every
// captured code).
func (w *CheckpointWriter) FinishTable(dict []string) error {
	w.u32(uint32(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	return w.err
}

// WriteCheckpoint atomically writes a checkpoint at ts: stream is
// called to write ntables table sections, then the file is CRC-sealed,
// fsynced and renamed into place. On success older checkpoints are
// removed and the WAL is truncated below ts — records above ts stay,
// which is exactly what replay needs on top of this checkpoint.
func (l *Log) WriteCheckpoint(ts uint64, ntables int, stream func(w *CheckpointWriter) error) error {
	if err := l.usable(); err != nil {
		// A poisoned log may hold in-memory state whose Commit already
		// returned an error; checkpointing it would make a failed
		// commit durable and truncate the WAL on top of a hole.
		return err
	}
	tmp := l.tmpCheckpointPath()
	f, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		_ = f.Close()
		_ = l.fs.Remove(tmp)
		return err
	}
	w := NewCheckpointWriter(f)
	_, _ = w.Write(ckptMagic)
	w.u64(ts)
	w.u32(uint32(ntables))
	if w.err != nil {
		return abort(w.err)
	}
	if err := stream(w); err != nil {
		return abort(err)
	}
	if w.err != nil {
		return abort(w.err)
	}
	// Seal: CRC of everything written so far, then the trailer magic.
	w.u32(w.crc.Sum32())
	_, _ = w.Write(ckptTrailer)
	if err := w.Flush(); err != nil {
		return abort(err)
	}
	if err := l.sync(f); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		return abort(err)
	}
	final := filepath.Join(l.dir, checkpointName(ts))
	if err := l.fs.Rename(tmp, final); err != nil {
		_ = l.fs.Remove(tmp)
		return err
	}
	if err := l.syncDir(l.dir); err != nil {
		return err
	}
	// The new checkpoint is durable: older ones are now dead weight.
	ckpts, err := l.checkpoints()
	if err != nil {
		return err
	}
	for _, c := range ckpts {
		if c.path != final {
			_ = l.fs.Remove(c.path)
		}
	}
	return l.TruncateBelow(ts)
}

// CheckpointReader streams a validated checkpoint body in O(buffer)
// memory: reads pull through a bufio window, feed the incremental CRC,
// and are bounded by the body length, so the trailer is never consumed
// as data. It implements io.Reader for the raw column-word streams,
// with helpers mirroring the writer's metadata fields. Integrity is
// verified after the body has been consumed (LoadCheckpoint compares
// the incremental CRC against the sealed one) — recovery applies data
// before the verdict, which is safe because a mismatch fails the whole
// Open and the partially filled state is discarded. A body that ends
// early or contradicts itself is a CorruptError matching
// ErrCorruptCheckpoint that names the source and the body offset
// reached; any other failure of the underlying reader (a bootstrap
// stream's timeout, refused frame or primary-side abort) is returned as
// it came — a network stall is not a corrupt checkpoint.
type CheckpointReader struct {
	br        *bufio.Reader
	crc       hash.Hash32
	name      string // the file's path, or "stream"
	size      int64  // body length (trailer excluded; unbounded for a stream)
	remaining int64  // body bytes not yet consumed
}

// NewCheckpointReader reads table sections from a stream of unknown
// length (a replica bootstrap). Nothing it allocates is sized by a
// length prefix alone: strings grow as their bytes arrive.
func NewCheckpointReader(r io.Reader) *CheckpointReader {
	return &CheckpointReader{
		br:        bufio.NewReaderSize(r, replayBufSize),
		crc:       crc32.NewIEEE(),
		name:      "stream",
		size:      math.MaxInt64,
		remaining: math.MaxInt64,
	}
}

// Corrupt returns a corruption error located at the reader's position,
// for section consumers that find a body contradicting their schema.
func (r *CheckpointReader) Corrupt(format string, args ...any) error {
	return corruptCkpt(r.name, r.size-r.remaining, format, args...)
}

// Read implements io.Reader.
func (r *CheckpointReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, r.Corrupt("body exhausted")
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	n, err := r.br.Read(p)
	r.crc.Write(p[:n])
	r.remaining -= int64(n)
	if err != nil && n > 0 {
		err = nil // deliver the bytes; the next call reports the error
	}
	if err != nil {
		return n, r.readErr(err)
	}
	return n, nil
}

// readErr classifies a failure of the underlying reader: only running
// out of bytes is corruption.
func (r *CheckpointReader) readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return r.Corrupt("truncated")
	}
	return err
}

// take consumes exactly n body bytes into a small scratch slice valid
// until the next read.
func (r *CheckpointReader) take(n int) ([]byte, error) {
	if int64(n) > r.remaining {
		return nil, r.Corrupt("truncated")
	}
	b, err := r.br.Peek(n)
	if err != nil {
		return nil, r.readErr(err)
	}
	r.crc.Write(b)
	if _, err := r.br.Discard(n); err != nil {
		return nil, err
	}
	r.remaining -= int64(n)
	return b, nil
}

func (r *CheckpointReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *CheckpointReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *CheckpointReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > r.remaining {
		return "", r.Corrupt("string of %d bytes in a %d-byte body", n, r.remaining)
	}
	// The prefix is not trusted with memory: the buffer grows as the
	// bytes arrive, one step at most ahead of them.
	var b []byte
	for have := 0; have < int(n); have = len(b) {
		b = append(b, make([]byte, min(int(n)-have, strStep))...)
		if _, err := io.ReadFull(r, b[have:]); err != nil {
			return "", err
		}
	}
	return string(b), nil
}

// strStep is the most str reads (and allocates) ahead of arrived bytes.
const strStep = 1 << 16

// TableHeader reads the next table section header written by
// BeginTable. The caller must follow with exactly cols (data, wts)
// column-word streams of rows words each, then TableDict.
func (r *CheckpointReader) TableHeader() (slot int, name string, rows, cols int, err error) {
	var s32 uint32
	if s32, err = r.u32(); err != nil {
		return
	}
	slot = int(s32)
	if name, err = r.str(); err != nil {
		return
	}
	var r64 uint64
	if r64, err = r.u64(); err != nil {
		return
	}
	rows = int(r64)
	var c32 uint32
	if c32, err = r.u32(); err != nil {
		return
	}
	cols = int(c32)
	return
}

// TableDict reads the table's trailing dictionary written by
// FinishTable.
func (r *CheckpointReader) TableDict() ([]string, error) {
	d32, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(d32) > r.remaining {
		return nil, r.Corrupt("dictionary claims %d strings in %d bytes", d32, r.remaining)
	}
	var dict []string
	for i := 0; i < int(d32); i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		dict = append(dict, s)
	}
	return dict, nil
}

// LoadCheckpoint locates the newest checkpoint, validates its framing,
// and streams its body to load in O(buffer) memory: the trailer magic
// and sealed CRC are read from the file's tail first, then the body is
// pulled chunk-wise through the reader while an incremental CRC runs
// over it, and the sums are compared once the body is drained. ok is
// false when the directory holds no checkpoint (a valid state: recovery
// then replays the WAL from scratch). A present-but-corrupt checkpoint
// is an error, not a fallback — the WAL below its timestamp is already
// truncated, so silently ignoring it would lose data.
func (l *Log) LoadCheckpoint(load func(ts uint64, ntables int, r *CheckpointReader) error) (ts uint64, ok bool, err error) {
	ckpts, err := l.checkpoints()
	if err != nil || len(ckpts) == 0 {
		return 0, false, err
	}
	newest := ckpts[len(ckpts)-1]
	f, err := l.fs.Open(newest.path)
	if err != nil {
		return 0, false, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	minLen := int64(len(ckptMagic) + 8 + 4 + ckptTrailerLen)
	if fi.Size() < minLen {
		return 0, false, corruptCkpt(newest.path, 0, "bad header (%d bytes, want at least %d)", fi.Size(), minLen)
	}
	// Seal first: a file without the trailer magic was never completely
	// written and must not be streamed into the tables at all.
	var tail [ckptTrailerLen]byte
	if _, err := f.ReadAt(tail[:], fi.Size()-ckptTrailerLen); err != nil {
		return 0, false, err
	}
	if string(tail[4:]) != string(ckptTrailer) {
		return 0, false, corruptCkpt(newest.path, fi.Size()-ckptTrailerLen, "missing trailer")
	}
	wantCRC := binary.LittleEndian.Uint32(tail[:4])

	r := NewCheckpointReader(f)
	r.name, r.size = newest.path, fi.Size()-ckptTrailerLen
	r.remaining = r.size
	l.notePeak(replayBufSize)
	magic, err := r.take(len(ckptMagic))
	if err != nil || string(magic) != string(ckptMagic) {
		return 0, false, corruptCkpt(newest.path, 0, "bad header")
	}
	ts, err = r.u64()
	if err != nil {
		return 0, false, err
	}
	n32, err := r.u32()
	if err != nil {
		return 0, false, err
	}
	if err := load(ts, int(n32), r); err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			err = r.Corrupt("%v", err)
		}
		return 0, false, err
	}
	// Drain whatever the loader did not consume so the CRC covers the
	// whole body, then compare against the sealed sum.
	if _, err := io.Copy(io.Discard, r); err != nil && r.remaining > 0 {
		return 0, false, err
	}
	if r.crc.Sum32() != wantCRC {
		return 0, false, corruptCkpt(newest.path, fi.Size()-ckptTrailerLen, "checksum mismatch")
	}
	return ts, true, nil
}

func (l *Log) tmpCheckpointPath() string {
	return filepath.Join(l.dir, "checkpoint.tmp")
}

func checkpointName(ts uint64) string {
	return fmt.Sprintf("checkpoint-%020d.ckpt", ts)
}

type ckptref struct {
	path string
	ts   uint64
}

// checkpoints lists checkpoint files sorted by timestamp.
func (l *Log) checkpoints() ([]ckptref, error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var out []ckptref
	for _, e := range ents {
		var ts uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%020d.ckpt", &ts); n != 1 {
			continue
		}
		out = append(out, ckptref{path: filepath.Join(l.dir, e.Name()), ts: ts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ts < out[j].ts })
	return out, nil
}
