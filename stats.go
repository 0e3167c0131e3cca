package ankerdb

import (
	"fmt"
	"strings"
	"time"
)

// Stats is a point-in-time snapshot of engine counters, the surface
// later benchmarking PRs measure against.
type Stats struct {
	Strategy string // snapshot strategy name

	// Transaction pipeline.
	Commits      uint64 // OLTP commits that materialised writes
	EmptyCommits uint64 // read-only OLTP commits
	Aborts       uint64 // explicit aborts + validation failures
	Conflicts    uint64 // precision-locking validation failures
	OLTPBegun    uint64
	OLAPBegun    uint64
	ActiveTxns   int // running OLTP transactions

	// Sharded group-commit pipeline.
	CommitShards  int    // configured commit shards
	CommitBatches uint64 // commit batches processed (group + cross-shard)
	// CommitShardConflicts counts commits whose footprint spanned more
	// than one shard and therefore serialized against multiple shard
	// locks (cross-shard commits). It is a routing/contention measure,
	// NOT a validation-failure count — see Conflicts for those.
	CommitShardConflicts uint64
	GroupCommitSize      GroupCommitHist // batch-size distribution

	// Durability subsystem (zero without WithDurability).
	Durable    bool
	SyncPolicy string // "always", "groupOnly" or "none"
	// WALBytes/WALRecords count record bytes and commit + bulk-load
	// records in the log: appended by this process plus the tail
	// replayed by Open (a recovered tail counts toward auto-checkpoint
	// growth like fresh appends, so it is checkpointed away instead of
	// re-replayed forever).
	WALBytes             uint64
	WALRecords           uint64
	FsyncCount           uint64 // fsyncs issued (segments, schema log, checkpoints)
	CheckpointCount      uint64 // checkpoints completed by this process
	AutoCheckpointCount  uint64 // of those, triggered by the scheduler
	RecoveryReplayedTxns uint64 // WAL commit records re-applied by Open
	// RecoveryReplayedLoads is the number of bulk-load chunk records
	// re-applied by Open.
	RecoveryReplayedLoads uint64
	// RecoveryPeakBytes is the high-water mark of transient buffer
	// bytes the streaming recovery readers held during Open (bufio
	// windows + the largest record frame): O(chunk) however large the
	// checkpoint and segments are, and zero when Open replayed nothing.
	RecoveryPeakBytes uint64

	// Snapshot lifecycle.
	SnapshotsCreated    uint64        // column snapshots created
	SnapshotsReleased   uint64        // column snapshots released
	ActiveSnapshots     uint64        // created - released
	Generations         uint64        // snapshot generations started
	SnapshotCreateTime  time.Duration // cumulative creation latency
	LastSnapshotTime    time.Duration // latency of the newest snapshot
	SnapshotStaleness   uint64        // commits the current generation lags
	PinnedGenerations   int           // generations still referenced
	CompletedCommitTS   uint64        // newest completed commit timestamp
	VersionNodes        int64         // live version-chain nodes
	VersionsGCed        int64         // version nodes removed by vacuum
	Vacuums             uint64        // chain GC passes
	RecentCommitRecords int           // retained validation records

	// Query engine.
	QueriesRun uint64 // queries executed through Txn.Query / DB.Query
	// ZoneMapSkippedChunks / ZoneMapScannedChunks count probe-scan
	// blocks pruned by zone maps vs actually read, summed over queries:
	// the measure of how much scan work predicate pushdown avoided.
	ZoneMapSkippedChunks uint64
	ZoneMapScannedChunks uint64

	// Secondary indexes.
	IndexProbes uint64 // index probes served (engine routing + Txn.Lookup/Filter)
	// IndexBackedQueries counts engine queries whose probe scan was
	// replaced by an index probe (a subset of QueriesRun).
	IndexBackedQueries uint64
	// IndexEntries counts live (not death-stamped) entries summed over
	// every secondary index; IndexEntriesRaw additionally counts
	// death-stamped entries Vacuum has not pruned yet. Raw minus live is
	// the churn backlog — the gap that made EstimateRange over-estimate
	// before it was live-scaled.
	IndexEntries    int64
	IndexEntriesRaw int64

	// Growable tables (Txn.Insert / Txn.Delete).
	RowInserts    uint64 // rows transactionally born (committed inserts)
	RowDeletes    uint64 // rows transactionally killed (committed deletes)
	RowsReclaimed uint64 // dead rows moved to free lists by Vacuum
	RowsFree      int    // free-list slots currently awaiting reuse
	TableCapacity int    // mapped row capacity summed over tables

	// Simulated virtual memory subsystem (COW page copies, faults,
	// VMA bookkeeping, vm_snapshot calls, ...). SimKernelTime is
	// VM.SimTime under the WithCostModel model: what those counts would
	// cost a real kernel. It is never spent, so engine wall time holds
	// none of it.
	VM            VMStats
	SimKernelTime time.Duration
	MappedBytes   uint64 // virtual size of the simulated process
	NumVMAs       int    // VMA count (Figure 5a's x-axis driver)

	// Phase-latency histograms (log2 nanosecond buckets — see Hist).
	// Stats snapshots them before loading any counter, and every
	// instrumented site increments its companion counter before
	// observing, so a histogram's Count never exceeds its counter
	// mid-flight and equals it once writers quiesce (e.g.
	// SnapshotCreateHist.Count == SnapshotsCreated,
	// QueryExecHist.Count == QueriesRun,
	// CommitValidateHist.Count == CommitBatches).
	CommitLockWaitHist Hist // contended shard commit-lock waits (the uncontended TryLock path is unobserved)
	CommitValidateHist Hist // precision-locking validation, one observation per batch
	CommitInstallHist  Hist // write materialisation, one observation per batch
	CommitFsyncHist    Hist // WAL append+sync, per batch that logged records
	SnapshotCreateHist Hist // column snapshot creation (Fig 5's y-axis, per strategy)
	QueryExecHist      Hist // Query.Run end-to-end execution
	CheckpointHist     Hist // checkpoint duration
	RecoveryReplayHist Hist // Open-time replay (at most one observation)
	VacuumHist         Hist // vacuum passes (explicit + commit-path)

	// Replication & serving tier (zero without WithServeAddr /
	// WithReplicaOf). Primary side: connected replica feeds, stream
	// frames released, subscribers dropped for falling behind, the
	// published watermark, and the worst replica lag — the primary's
	// completed commit count beyond the replica's newest acknowledged
	// applied timestamp. ReplicaLagHist buckets are commit COUNTS (log2),
	// not nanoseconds, one observation per ack received.
	Serving            bool
	ConnectedReplicas  int
	ReplFramesStreamed uint64
	ReplSubscriberDrop uint64
	ReplWatermark      uint64
	MaxReplicaLag      uint64
	ReplicaLagHist     Hist

	// Replica side: whether this DB replicates (until Promote), the
	// connector's health, and the staleness bound — ReplicaAppliedTS is
	// the newest commit timestamp applied, ReplicaSourceTS the newest
	// watermark the primary advertised; reads see everything at or below
	// CompletedCommitTS, which trails ReplicaSourceTS by the apply lag.
	Replica           bool
	Promoted          bool
	ReplicaConnected  bool
	ReplicaAppliedTS  uint64
	ReplicaSourceTS   uint64
	ReplicaFrames     uint64
	ReplicaReconnects uint64
	ReplicaBootstraps uint64
}

// GroupCommitHist is a log2 histogram of commit batch sizes: how many
// transactions each shard-lock acquisition committed together. Bucket
// upper bounds are GroupCommitBucketBounds (1, 2, 4, 8, 16, 32, 64;
// the final bucket is unbounded). Cross-shard commits count as batches
// of one.
type GroupCommitHist struct {
	Buckets [8]uint64
}

// GroupCommitBucketBounds holds the inclusive upper bound of each
// bounded GroupCommitHist bucket: Buckets[i] counts batches of up to
// GroupCommitBucketBounds[i] transactions (and more than the previous
// bound). The last histogram bucket has no bound here — it counts
// batches larger than the final entry.
var GroupCommitBucketBounds = [7]int{1, 2, 4, 8, 16, 32, 64}

// Observations returns the total number of batches recorded.
func (h GroupCommitHist) Observations() uint64 {
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

// String renders the distribution with its bucket bounds, eliding
// empty buckets: e.g. "batches=12 <=1:4 <=4:6 >64:2".
func (h GroupCommitHist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d", h.Observations())
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if i < len(GroupCommitBucketBounds) {
			fmt.Fprintf(&b, " <=%d:%d", GroupCommitBucketBounds[i], n)
		} else {
			fmt.Fprintf(&b, " >%d:%d", GroupCommitBucketBounds[len(GroupCommitBucketBounds)-1], n)
		}
	}
	return b.String()
}

// Stats returns current engine counters.
func (db *DB) Stats() Stats {
	// Histograms first, before ANY counter load: every instrumented
	// site bumps its companion counter before observing, so snapshotting
	// in this order bounds each histogram's Count by the counter even
	// mid-operation.
	tel := &db.tel
	lockWaitH := tel.commitLockWait.Snapshot()
	validateH := tel.commitValidate.Snapshot()
	installH := tel.commitInstall.Snapshot()
	fsyncH := tel.commitFsync.Snapshot()
	snapCreateH := tel.snapCreate.Snapshot()
	queryExecH := tel.queryExec.Snapshot()
	checkpointH := tel.checkpoint.Snapshot()
	recoveryH := tel.recovery.Snapshot()
	vacuumH := tel.vacuum.Snapshot()
	replLagH := tel.replLag.Snapshot()

	m := db.snaps
	// released first: every release is preceded by a create, so loading
	// in this order keeps created >= released even mid-lifecycle.
	released := m.released.Load()
	created := m.created.Load()

	s := Stats{
		CommitLockWaitHist: lockWaitH,
		CommitValidateHist: validateH,
		CommitInstallHist:  installH,
		CommitFsyncHist:    fsyncH,
		SnapshotCreateHist: snapCreateH,
		QueryExecHist:      queryExecH,
		CheckpointHist:     checkpointH,
		RecoveryReplayHist: recoveryH,
		VacuumHist:         vacuumH,

		Strategy:     db.strat.Name(),
		Commits:      db.st.commits.Load(),
		EmptyCommits: db.st.emptyCommits.Load(),
		Aborts:       db.st.aborts.Load(),
		Conflicts:    db.st.conflicts.Load(),
		OLTPBegun:    db.st.oltpBegun.Load(),
		OLAPBegun:    db.st.olapBegun.Load(),
		ActiveTxns:   db.activ.Len(),

		CommitShards:         len(db.shards),
		CommitBatches:        db.st.commitBatches.Load(),
		CommitShardConflicts: db.st.crossShard.Load(),

		CheckpointCount:       db.st.checkpoints.Load(),
		AutoCheckpointCount:   db.st.autoCheckpoints.Load(),
		RecoveryReplayedTxns:  db.recoveredTxns,
		RecoveryReplayedLoads: db.recoveredLoads,

		SnapshotsCreated:   created,
		SnapshotsReleased:  released,
		ActiveSnapshots:    created - released,
		SnapshotCreateTime: time.Duration(m.createdNanos.Load()),
		LastSnapshotTime:   time.Duration(m.lastNanos.Load()),
		CompletedCommitTS:  db.oracle.Completed(),

		VersionsGCed: db.st.versionsGCed.Load(),
		Vacuums:      db.st.vacuums.Load(),

		QueriesRun:           db.st.queriesRun.Load(),
		ZoneMapSkippedChunks: db.st.zoneSkipped.Load(),
		ZoneMapScannedChunks: db.st.zoneScanned.Load(),

		IndexProbes:        db.st.indexProbes.Load(),
		IndexBackedQueries: db.st.indexQueries.Load(),

		RowInserts:    db.st.rowInserts.Load(),
		RowDeletes:    db.st.rowDeletes.Load(),
		RowsReclaimed: db.st.rowsReclaimed.Load(),

		VM:          db.proc.Stats(),
		MappedBytes: db.proc.MappedBytes(),
		NumVMAs:     db.proc.NumVMAs(),
	}
	s.SimKernelTime = s.VM.SimTime(db.cost)
	if db.wal != nil {
		s.Durable = true
		s.SyncPolicy = db.wal.Policy().String()
		s.WALBytes = db.wal.Bytes()
		s.WALRecords = db.wal.Records()
		s.FsyncCount = db.wal.Fsyncs()
		s.RecoveryPeakBytes = db.wal.RecoveryPeakBytes()
	}
	for i := range db.st.groupSizes {
		s.GroupCommitSize.Buckets[i] = db.st.groupSizes[i].Load()
	}
	for _, sh := range db.shards {
		s.RecentCommitRecords += sh.recent.Len()
	}
	if db.pub != nil {
		s.ReplFramesStreamed = db.pub.Frames()
		s.ReplSubscriberDrop = db.pub.Drops()
		s.ReplWatermark = db.pub.Watermark()
	}
	if db.srv != nil {
		s.Serving = true
	}
	db.peerMu.Lock()
	s.ConnectedReplicas = len(db.peers)
	db.peerMu.Unlock()
	s.MaxReplicaLag = db.maxReplicaLag()
	s.ReplicaLagHist = replLagH
	if r := db.rep; r != nil {
		s.Replica = !db.promoted.Load()
		s.Promoted = db.promoted.Load()
		s.ReplicaConnected = r.connected.Load()
		s.ReplicaAppliedTS = r.applied.Load()
		s.ReplicaSourceTS = r.sourceW.Load()
		s.ReplicaFrames = r.frames.Load()
		s.ReplicaReconnects = r.reconnects.Load()
		s.ReplicaBootstraps = r.bootstraps.Load()
	}

	m.mu.Lock()
	s.Generations = m.generations
	s.PinnedGenerations = len(m.live)
	if cur := m.current; cur != nil && cur.tsOK {
		// Re-read Completed: the sample above may predate this
		// generation, and staleness must not underflow.
		if c := db.oracle.Completed(); c > cur.ts {
			s.SnapshotStaleness = c - cur.ts
		}
	}
	m.mu.Unlock()

	for _, t := range db.liveTables() {
		for _, c := range t.cols {
			s.VersionNodes += c.chain.Nodes()
			if ix := c.idx.Load(); ix != nil {
				s.IndexEntries += int64(ix.LiveLen())
				s.IndexEntriesRaw += int64(ix.Len())
			}
		}
		s.TableCapacity += t.st.Capacity()
		t.amu.Lock()
		s.RowsFree += len(t.free)
		t.amu.Unlock()
	}
	return s
}
