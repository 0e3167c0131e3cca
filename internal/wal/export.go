package wal

import (
	"os"
	"path/filepath"
)

// Exported record codecs for the replication tier. The wire protocol
// (internal/repl) ships WAL record payloads verbatim: the publisher
// stages each payload exactly as OnAppend hands it over from the frame
// the log wrote, and a replica decodes it to apply and then logs the
// received bytes with AppendEncoded. A commit or load record is thus
// encoded once, on the primary, and a replica — chained or not —
// replays exactly what the primary's crash recovery would replay,
// through the same idempotent-by-commitTS rules. Framing (length + CRC)
// is the transport's concern; these functions work on bare payloads.

// Encode serialises the commit record payload (the bytes AppendCommits
// frames into a shard segment).
func (r CommitRecord) Encode() []byte { return r.encode(nil) }

// DecodeCommitPayload decodes a commit record payload produced by
// CommitRecord.Encode or found framed in a shard segment.
func DecodeCommitPayload(payload []byte) (CommitRecord, error) {
	return decodeCommit(payload)
}

// Encode serialises the table-DDL marker payload (the bytes
// AppendTableDDL appends to the schema log).
func (r TableDDLRecord) Encode() []byte { return r.encode(nil) }

// DecodeLoadPayload decodes a load record payload.
func DecodeLoadPayload(payload []byte) (LoadRecord, error) {
	return decodeLoad(payload)
}

// SchemaRecord is one decoded schema-log payload: exactly one of the
// three fields is non-nil, mirroring the three record kinds the schema
// log interleaves.
type SchemaRecord struct {
	Table *TableRecord
	Index *IndexDDLRecord
	DDL   *TableDDLRecord
}

// ReplaySchemaRaw streams every schema-log record payload to fn in
// append order, undecoded, with each record's log sequence (its index
// in the file). A primary bootstrapping a replica forwards these bytes
// verbatim: replaying them in sequence reproduces the exact table-slot
// assignment the commit records address, and the sequence numbers let
// the replica skip records the overlapping live stream already
// delivered. Stops cleanly at a torn tail, like recovery.
func (l *Log) ReplaySchemaRaw(fn func(seq uint64, payload []byte) error) error {
	path := filepath.Join(l.dir, "schema.log")
	if _, err := l.fs.Stat(path); os.IsNotExist(err) {
		return nil
	}
	var seq uint64
	err := l.replayFile(path, false, func(off int64, payload []byte) error {
		e := fn(seq, payload)
		seq++
		return e
	})
	if err == nil {
		l.noteSchemaCount(seq)
	}
	return err
}

// SchemaRecords returns the number of records in the schema log:
// records found by the last full replay pass plus records appended
// since. A recovered replica seeds its schema-apply cursor with this —
// its own log is a byte-exact prefix of the primary's.
func (l *Log) SchemaRecords() uint64 {
	l.schemaMu.Lock()
	defer l.schemaMu.Unlock()
	return l.schemaSeq
}

// AppendSchemaRaw appends one schema-log payload verbatim — the
// replica-side write that keeps its schema log a byte-exact prefix of
// the primary's, so slot assignment and the sequence numbering of any
// future re-bootstrap stay aligned. Fsynced like every schema append;
// fires OnSchema with the assigned sequence.
func (l *Log) AppendSchemaRaw(payload []byte) error {
	return l.appendSchema(payload)
}

// DecodeSchemaPayload decodes a schema-log payload (as delivered to
// OnSchema) into whichever of the three schema record kinds it holds.
func DecodeSchemaPayload(payload []byte) (SchemaRecord, error) {
	switch {
	case isTableDDL(payload):
		rec, err := decodeTableDDL(payload)
		if err != nil {
			return SchemaRecord{}, err
		}
		return SchemaRecord{DDL: &rec}, nil
	case isIndexDDL(payload):
		rec, err := decodeIndexDDL(payload)
		if err != nil {
			return SchemaRecord{}, err
		}
		return SchemaRecord{Index: &rec}, nil
	default:
		rec, err := decodeTable(payload)
		if err != nil {
			return SchemaRecord{}, err
		}
		return SchemaRecord{Table: &rec}, nil
	}
}
