package ankerdb

import (
	"fmt"
	"sync"
	"time"

	"ankerdb/internal/mvcc"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/wal"
)

// The commit pipeline replaces the paper's single serialized commit
// phase (the Figure 11 scaling ceiling) with a sharded, batched
// group-commit design:
//
//   - Columns are partitioned onto commit shards by a hash of their
//     (table, column) address. Each shard owns a commit lock and the
//     recent-commits list used for precision-locking validation of the
//     columns routed to it, so transactions with disjoint footprints
//     validate and install in parallel.
//   - Same-shard commits are batched: committers enqueue and the first
//     to take the shard lock drains the queue, validates the whole
//     batch under one lock acquisition, and stamps it with consecutive
//     commit timestamps from a single oracle block allocation.
//   - Transactions whose footprint spans multiple shards take every
//     involved shard lock in ascending shard order (deadlock-free) and
//     commit alone.
//
// Correctness relies on two properties. First, the oracle's completion
// watermark only advances over contiguous timestamp prefixes, so a
// commit never becomes visible to new transactions before all
// earlier-stamped commits are also visible, even though shards
// materialize out of order. Second, a transaction's validation holds
// the locks of every shard its reads are routed to through its own
// timestamp allocation, so every conflicting earlier-stamped commit is
// already in that shard's recent list when validation runs, and every
// later-stamped commit will in turn see this transaction's record.

// commitShard is one partition of the commit pipeline.
type commitShard struct {
	// id is the shard's index, which is also its WAL segment series.
	id int

	// mu is the shard commit lock: it serializes validation, timestamp
	// allocation, and version-chain installation for the columns routed
	// to this shard, and snapshot capture of those columns.
	mu sync.Mutex

	// recent holds the commit records of transactions that wrote this
	// shard's columns, for precision-locking validation.
	recent *mvcc.RecentList

	qmu   sync.Mutex
	queue []*commitReq
}

// drain takes the current queue. The caller holds the shard commit
// lock, so every drained request is processed before the lock drops.
func (s *commitShard) drain() []*commitReq {
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.qmu.Unlock()
	return batch
}

// commitReq is one transaction waiting in a shard's group-commit queue.
type commitReq struct {
	st     *mvcc.TxnState
	epochs []tableEpoch // DDL epochs recorded at staging time (ddl.go)
	ts     uint64       // commit timestamp, set by the leader before the ack
	errc   chan error   // buffered; receives the commit outcome exactly once
}

func newCommitShards(n int) []*commitShard {
	shards := make([]*commitShard, n)
	for i := range shards {
		shards[i] = &commitShard{id: i, recent: mvcc.NewRecentList()}
	}
	return shards
}

// shardOf routes a column to its commit shard.
func (db *DB) shardOf(id mvcc.ColumnID) int {
	return storage.ShardOf(id.Table, id.Col, len(db.shards))
}

// txnShards returns the sorted, distinct shard ids of t's footprint
// (written, point-read, and predicate columns).
func (db *DB) txnShards(t *mvcc.TxnState) []int {
	if len(db.shards) == 1 {
		return []int{0}
	}
	marks := make([]bool, len(db.shards))
	t.EachColumn(func(id mvcc.ColumnID) { marks[db.shardOf(id)] = true })
	ids := make([]int, 0, 2)
	for i, m := range marks {
		if m {
			ids = append(ids, i)
		}
	}
	return ids
}

// commit runs the commit phase for t's staged writes: precision-locking
// validation against the recent commits of every shard t touched, then
// in-place materialisation with displaced versions pushed onto the
// column version chains (write timestamp strictly before data, which
// the lock-free read protocol in column.valueAt relies on).
// epochs carries the DDL epochs the transaction recorded at staging
// time; a drop or truncate of any recorded table since then aborts the
// commit (ddlAborted) before anything installs.
func (db *DB) commit(t *mvcc.TxnState, epochs []tableEpoch) error {
	ids := db.txnShards(t)
	if len(ids) == 1 {
		return db.commitGrouped(db.shards[ids[0]], t, epochs)
	}
	db.st.crossShard.Add(1)
	return db.commitCrossShard(ids, t, epochs)
}

// commitGrouped commits a single-shard transaction through the shard's
// group-commit queue. Every committer enqueues its request and then
// takes the shard lock; whichever committer gets the lock first drains
// the queue and processes the whole batch, so requests that pile up
// behind a busy shard are validated and stamped together. A committer
// whose request was processed by an earlier leader drains whatever
// newer requests queued meanwhile (possibly none) and then picks up its
// own result.
func (db *DB) commitGrouped(s *commitShard, t *mvcc.TxnState, epochs []tableEpoch) error {
	req := &commitReq{st: t, epochs: epochs, errc: make(chan error, 1)}
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()

	// Fast path: an earlier leader may already have drained us while we
	// were enqueueing — skip the lock handoff entirely then. Requests
	// still queued are always drained eventually because their own
	// enqueuer is in the lock queue below.
	select {
	case err := <-req.errc:
		return db.finishGrouped(req, err)
	default:
	}

	// TryLock first so the uncontended path pays neither a clock read
	// nor an observation; the lock-wait histogram counts contended
	// acquisitions only.
	if !s.mu.TryLock() {
		wait := time.Now()
		s.mu.Lock()
		db.tel.commitLockWait.Observe(time.Since(wait))
	}
	batch := s.drain()
	if len(batch) > 0 {
		db.runBatch(s, batch)
	}
	s.mu.Unlock()
	return db.finishGrouped(req, <-req.errc)
}

// finishGrouped completes a group-committed request after its result
// arrived. On success it blocks, outside every shard lock, until the
// completion watermark covers the request's timestamp, so a
// transaction beginning after Commit returns is guaranteed to read its
// writes (read-your-own-writes across out-of-order shard completion).
func (db *DB) finishGrouped(req *commitReq, err error) error {
	if err == nil {
		db.oracle.WaitCompleted(req.ts)
	}
	return err
}

// runBatch validates, stamps, and installs a batch of same-shard
// commits under the shard lock (held by the caller): one recent-list
// lock acquisition per validation, one oracle block allocation for the
// whole batch, and — with durability enabled — one WAL append (one
// fsync under the default policy) covering every record in the batch,
// so durability costs amortize across the group exactly like the lock
// acquisition. Transactions that fail validation complete their
// timestamp slot as a no-op so the completion watermark stays
// contiguous.
func (db *DB) runBatch(s *commitShard, batch []*commitReq) {
	db.st.commitBatches.Add(1)
	db.tel.groupSize.Observe(time.Duration(len(batch)))

	first := db.oracle.NextCommitTSBlock(len(batch))
	done := make([]*commitReq, 0, len(batch))
	var recs []wal.CommitRecord
	// Phase latency is accumulated across the batch with chained clock
	// marks (two reads per request) and observed once per batch — the
	// granularity the batch actually pays validation and installation
	// at. The marks are recorder-relative monotonic offsets: one read
	// serves both the phase accounting and, via RecordAt, the flight-
	// recorder timestamp of the request's commit/abort event, so the
	// whole batch adds no clock reads beyond the phase marks.
	tr := db.tel.rec
	var validateTime, installTime time.Duration
	mark := tr.Now()
	for i, req := range batch {
		ts := first + uint64(i)
		req.ts = ts
		// Read-free transactions cannot be invalidated and skip
		// validation (HasReads). Earlier transactions of this batch
		// have already added their records, so intra-batch conflicts
		// are caught here too.
		// The DDL epoch guard runs before validation: a table in the
		// footprint that was dropped or truncated since staging would
		// otherwise install into freed memory or resurrect truncated
		// rows through the index. The epoch load is ordered after the
		// DDL's bump by this shard's lock, which the DDL held.
		if err := ddlAborted(req.epochs); err != nil {
			db.st.conflicts.Add(1)
			db.oracle.CompleteNoop(ts)
			now := tr.Now()
			validateTime += now - mark
			mark = now
			tr.RecordAt(telemetry.EvTxnAbort, int64(req.st.ID), telemetry.AbortConflict, int64(req.st.Begin), now)
			req.errc <- err
			continue
		}
		conflictTS := validate(s, req.st)
		now := tr.Now()
		validateTime += now - mark
		mark = now
		if conflictTS != 0 {
			db.st.conflicts.Add(1)
			db.oracle.CompleteNoop(ts)
			tr.RecordAt(telemetry.EvTxnAbort, int64(req.st.ID), telemetry.AbortConflict, int64(req.st.Begin), now)
			req.errc <- fmt.Errorf("%w: read set invalidated by commit %d", ErrConflict, conflictTS)
			continue
		}
		rec := db.install(req.st, ts)
		s.recent.Add(rec)
		if db.wal != nil {
			recs = append(recs, db.redoRecord(rec))
		}
		done = append(done, req)
		now = tr.Now()
		installTime += now - mark
		mark = now
	}
	db.tel.commitValidate.Observe(validateTime)
	db.tel.commitInstall.Observe(installTime)
	// The batch's records become durable before any of its timestamps
	// complete: the visibility watermark never runs ahead of the
	// durable prefix, so a transaction can only read state that will
	// survive a crash. A WAL write failure is reported to every
	// committer in the batch, but the slots still complete — the
	// watermark must not stall — leaving the writes applied in memory;
	// see the walErr delivery below.
	var walErr error
	evAt := mark
	if len(recs) > 0 {
		walErr = db.wal.AppendCommits(s.id, recs)
		evAt = tr.Now()
		db.tel.commitFsync.Observe(evAt - mark)
		db.kickAutoCkpt()
	}
	for _, req := range done {
		db.oracle.Complete(req.ts)
		if walErr == nil {
			tr.RecordAt(telemetry.EvTxnCommit, int64(req.st.ID), 0, int64(req.st.Begin), evAt)
		} else {
			tr.RecordAt(telemetry.EvTxnAbort, int64(req.st.ID), telemetry.AbortError, int64(req.st.Begin), evAt)
		}
		req.errc <- walErr
	}
	db.st.commits.Add(uint64(len(done)))
}

// commitCrossShard commits a transaction whose footprint spans several
// shards: all involved shard locks are taken in ascending shard order
// (deadlock-free by global ordering), the transaction validates against
// each shard's recent commits, and its record is split per shard.
func (db *DB) commitCrossShard(ids []int, t *mvcc.TxnState, epochs []tableEpoch) error {
	shards := make([]*commitShard, len(ids))
	tr := db.tel.rec
	wait := tr.Now()
	for i, id := range ids {
		shards[i] = db.shards[id]
		shards[i].mu.Lock()
	}
	mark := tr.Now()
	db.tel.commitLockWait.Observe(mark - wait)
	unlock := func() {
		for i := len(shards) - 1; i >= 0; i-- {
			shards[i].mu.Unlock()
		}
	}

	db.st.commitBatches.Add(1)
	db.tel.groupSize.Observe(1)

	// DDL epoch guard (see runBatch): any involved shard's lock orders
	// the epoch load after a concurrent DDL's bump.
	if err := ddlAborted(epochs); err != nil {
		db.st.conflicts.Add(1)
		now := tr.Now()
		db.tel.commitValidate.Observe(now - mark)
		tr.RecordAt(telemetry.EvTxnAbort, int64(t.ID), telemetry.AbortConflict, int64(t.Begin), now)
		unlock()
		return err
	}
	for _, s := range shards {
		if conflictTS := validate(s, t); conflictTS != 0 {
			db.st.conflicts.Add(1)
			now := tr.Now()
			db.tel.commitValidate.Observe(now - mark)
			tr.RecordAt(telemetry.EvTxnAbort, int64(t.ID), telemetry.AbortConflict, int64(t.Begin), now)
			unlock()
			return fmt.Errorf("%w: read set invalidated by commit %d", ErrConflict, conflictTS)
		}
	}
	now := tr.Now()
	db.tel.commitValidate.Observe(now - mark)
	mark = now
	ts := db.oracle.NextCommitTSBlock(1)
	rec := db.install(t, ts)
	for i, id := range ids {
		var writes, visWrites []mvcc.WriteEntry
		for _, e := range rec.Writes {
			if db.shardOf(e.Col) == id {
				writes = append(writes, e)
			}
		}
		for _, e := range rec.VisWrites {
			if db.shardOf(e.Col) == id {
				visWrites = append(visWrites, e)
			}
		}
		if len(writes) > 0 || len(visWrites) > 0 {
			shards[i].recent.Add(mvcc.CommitRecord{TS: ts, Writes: writes, VisWrites: visWrites})
		}
	}
	now = tr.Now()
	db.tel.commitInstall.Observe(now - mark)
	mark = now
	// The whole cross-shard record is logged once: to the owning
	// (visibility pseudo-column) shard of the first mutated table when
	// the transaction birthed or killed rows — keeping a table's row
	// ops in one timestamp-ordered segment series — and to the lowest
	// involved shard otherwise. Replay merges shard logs idempotently
	// (writes by timestamp, row ops buffered and sorted per row), so
	// which segment carries the record never changes the outcome.
	var walErr error
	if db.wal != nil {
		logShard := ids[0]
		if len(rec.Ops) > 0 {
			logShard = db.shardOf(mvcc.VisColumnID(rec.Ops[0].Table))
		}
		walErr = db.wal.AppendCommits(logShard, []wal.CommitRecord{db.redoRecord(rec)})
		now = tr.Now()
		db.tel.commitFsync.Observe(now - mark)
		db.kickAutoCkpt()
	}
	if walErr == nil {
		tr.RecordAt(telemetry.EvTxnCommit, int64(t.ID), 0, int64(t.Begin), now)
	} else {
		tr.RecordAt(telemetry.EvTxnAbort, int64(t.ID), telemetry.AbortError, int64(t.Begin), now)
	}
	db.oracle.Complete(ts)
	db.st.commits.Add(1)
	unlock()
	// See commitGrouped: visibility before Commit returns.
	db.oracle.WaitCompleted(ts)
	return walErr
}

// install materialises t's staged writes and row ops at commit
// timestamp ts through the shared install kernels (apply.go:
// installCell, installRowOp — which own the ordering rules) and returns
// the commit record. The caller holds the commit locks of every shard
// the writes and row ops are routed to (including each mutated table's
// visibility pseudo-column shard).
func (db *DB) install(t *mvcc.TxnState, ts uint64) mvcc.CommitRecord {
	writes := make([]mvcc.WriteEntry, 0, t.NumWrites())
	t.EachWrite(func(id mvcc.ColumnID, row int, val int64) {
		// Index maintenance rides the same critical section as the write
		// install: an inserted row births one entry per indexed column
		// (Insert stages a write on every column).
		old := db.columnByID(id).installCell(row, val, ts, t.RowInserted(id.Table, row))
		writes = append(writes, mvcc.WriteEntry{Col: id, Row: row, Old: old, New: val})
	})
	rec := mvcc.CommitRecord{TS: ts, Writes: writes}
	var deltas tableDeltas
	t.EachRowOp(func(op mvcc.RowOp) {
		tab := db.tableByIdx(op.Table)
		if op.Del {
			// Shadow every column of the dying row with its last value:
			// a concurrent reader whose predicate or point read covered
			// the row read state this deletion invalidates.
			for _, c := range tab.cols {
				old := c.data.Get(op.Row)
				rec.VisWrites = append(rec.VisWrites,
					mvcc.WriteEntry{Col: c.id, Row: op.Row, Old: old, New: old})
			}
		}
		db.installRowOp(tab, op.Row, op.Del, ts, &deltas)
		rec.VisWrites = append(rec.VisWrites,
			mvcc.WriteEntry{Col: mvcc.VisColumnID(op.Table), Row: op.Row})
		rec.Ops = append(rec.Ops, op)
	})
	deltas.flush(ts)
	return rec
}

// lockAllShards takes every shard commit lock in ascending order,
// stopping the whole commit pipeline.
func (db *DB) lockAllShards() {
	for _, s := range db.shards {
		s.mu.Lock()
	}
}

func (db *DB) unlockAllShards() {
	for i := len(db.shards) - 1; i >= 0; i-- {
		db.shards[i].mu.Unlock()
	}
}

// validate runs precision-locking validation of t against s's recent
// commits. Transactions with an empty read set skip the walk: blind
// writes serialize at their commit timestamp and cannot have read
// stale data. This matters under the sharded pipeline, where the
// visibility watermark (and with it begin timestamps) can briefly lag
// behind the newest assigned timestamps, widening the window of
// records Validate would otherwise scan.
func validate(s *commitShard, t *mvcc.TxnState) uint64 {
	if !t.HasReads() {
		return 0
	}
	return s.recent.Validate(t)
}
