package ankerdb

import "time"

// Stats is a point-in-time snapshot of engine counters, and the one
// description of the engine's metrics: each field's `metric` tag names
// its Prometheus series once, as "name,kind[,option]", with its help
// text beside it. Kinds: counter, gauge (bools render 0/1), seconds (a
// Duration rendered as a seconds counter), latency (a Hist of
// durations) and counts (a Hist of counts). Options: strategy labels
// the series with the snapshot strategy; repl renders it only while
// serving, replicating or promoted. `metric:"-"` marks a field with no
// series of its own. MetricsText walks the tags, and a remote session's
// Stats body walks every exported leaf (binenc.Struct).
type Stats struct {
	Strategy string `metric:"-"` // snapshot strategy (a Kind; ankerdb_info's strategy label)

	// Transaction pipeline.
	Commits      uint64 `metric:"ankerdb_txn_commits_total,counter" help:"OLTP commits that materialised writes"`
	EmptyCommits uint64 `metric:"ankerdb_txn_empty_commits_total,counter" help:"read-only OLTP commits"`
	Aborts       uint64 `metric:"ankerdb_txn_aborts_total,counter" help:"explicit aborts plus validation failures"`
	Conflicts    uint64 `metric:"ankerdb_txn_conflicts_total,counter" help:"precision-locking validation failures"`
	OLTPBegun    uint64 `metric:"ankerdb_txn_oltp_begun_total,counter" help:"OLTP transactions begun"`
	OLAPBegun    uint64 `metric:"ankerdb_txn_olap_begun_total,counter" help:"OLAP transactions begun"`
	ActiveTxns   int    `metric:"ankerdb_txn_active,gauge" help:"running OLTP transactions"`

	// Sharded group-commit pipeline.
	CommitShards int `metric:"-"` // configured commit shards (ankerdb_info's shards label)
	// CommitBatches counts group batches plus cross-shard commits.
	CommitBatches uint64 `metric:"ankerdb_commit_batches_total,counter" help:"commit batches processed"`
	// CommitShardConflicts counts commits whose footprint spanned more
	// than one shard and therefore serialized against multiple shard
	// locks (cross-shard commits). It is a routing/contention measure,
	// NOT a validation-failure count — see Conflicts for those.
	CommitShardConflicts uint64 `metric:"ankerdb_commit_cross_shard_total,counter" help:"commits spanning multiple shards"`
	// GroupCommitSize is the distribution of batch sizes: how many
	// transactions each shard-lock acquisition committed together
	// (cross-shard commits are batches of one). Its Count equals
	// CommitBatches and its SumNanos — a sum of sizes, not nanoseconds —
	// equals Commits + Conflicts once writers quiesce.
	GroupCommitSize Hist `metric:"ankerdb_group_commit_size,counts" help:"transactions per shard-lock acquisition"`

	// Durability subsystem (zero without WithDurability).
	Durable    bool   `metric:"-"` // ankerdb_info's durable label
	SyncPolicy string `metric:"-"` // "always", "groupOnly" or "none" (ankerdb_info's sync label)
	// WALBytes/WALRecords count record bytes and commit + bulk-load
	// records in the log: appended by this process plus the tail
	// replayed by Open (a recovered tail counts toward auto-checkpoint
	// growth like fresh appends, so it is checkpointed away instead of
	// re-replayed forever).
	WALBytes             uint64 `metric:"ankerdb_wal_bytes_total,counter" help:"WAL record bytes appended"`
	WALRecords           uint64 `metric:"ankerdb_wal_records_total,counter" help:"WAL commit and bulk-load records appended"`
	FsyncCount           uint64 `metric:"ankerdb_wal_fsyncs_total,counter" help:"fsyncs issued"` // segments, schema log, checkpoints
	CheckpointCount      uint64 `metric:"ankerdb_checkpoints_total,counter" help:"checkpoints completed"`
	AutoCheckpointCount  uint64 `metric:"ankerdb_auto_checkpoints_total,counter" help:"checkpoints triggered by the scheduler"`
	RecoveryReplayedTxns uint64 `metric:"ankerdb_recovery_replayed_txns_total,counter" help:"WAL commit records replayed by Open"`
	// RecoveryReplayedLoads is the number of bulk-load chunk records
	// re-applied by Open.
	RecoveryReplayedLoads uint64 `metric:"ankerdb_recovery_replayed_loads_total,counter" help:"bulk-load chunk records replayed by Open"`
	// RecoveryPeakBytes is the high-water mark of transient buffer
	// bytes the streaming recovery readers held during Open (bufio
	// windows + the largest record frame): O(chunk) however large the
	// checkpoint and segments are, and zero when Open replayed nothing.
	RecoveryPeakBytes uint64 `metric:"-"`

	// Snapshot lifecycle.
	SnapshotsCreated    uint64        `metric:"ankerdb_snapshots_created_total,counter" help:"column snapshots created"`
	SnapshotsReleased   uint64        `metric:"ankerdb_snapshots_released_total,counter" help:"column snapshots released"`
	ActiveSnapshots     uint64        `metric:"ankerdb_snapshots_active,gauge" help:"column snapshots currently held"` // created - released
	Generations         uint64        `metric:"ankerdb_snapshot_generations_total,counter" help:"snapshot generations started"`
	SnapshotCreateTime  time.Duration `metric:"-"` // cumulative creation latency
	LastSnapshotTime    time.Duration `metric:"-"` // latency of the newest snapshot
	SnapshotStaleness   uint64        `metric:"ankerdb_snapshot_staleness_commits,gauge" help:"commits the current generation lags"`
	PinnedGenerations   int           `metric:"ankerdb_snapshot_pinned_generations,gauge" help:"generations still referenced"`
	CompletedCommitTS   uint64        `metric:"-"` // newest completed commit timestamp
	VersionNodes        int64         `metric:"ankerdb_version_nodes,gauge" help:"live version-chain nodes"`
	VersionsGCed        int64         `metric:"ankerdb_versions_gced_total,counter" help:"version nodes removed by vacuum"`
	Vacuums             uint64        `metric:"ankerdb_vacuums_total,counter" help:"vacuum passes"`
	RecentCommitRecords int           `metric:"-"` // retained validation records

	// Query engine.
	QueriesRun uint64 `metric:"ankerdb_queries_total,counter" help:"queries executed through the engine"` // Txn.Query / DB.Query
	// ZoneMapSkippedChunks / ZoneMapScannedChunks count probe-scan
	// blocks pruned by zone maps vs actually read, summed over queries:
	// the measure of how much scan work predicate pushdown avoided.
	ZoneMapSkippedChunks uint64 `metric:"ankerdb_zone_blocks_skipped_total,counter" help:"probe blocks pruned by zone maps"`
	ZoneMapScannedChunks uint64 `metric:"ankerdb_zone_blocks_scanned_total,counter" help:"probe blocks read"`

	// Secondary indexes.
	IndexProbes uint64 `metric:"ankerdb_index_probes_total,counter" help:"secondary-index probes served"` // engine routing + Txn.Lookup/Filter
	// IndexBackedQueries counts engine queries whose probe scan was
	// replaced by an index probe (a subset of QueriesRun).
	IndexBackedQueries uint64 `metric:"ankerdb_index_backed_queries_total,counter" help:"engine queries routed through an index"`
	// IndexEntries counts live (not death-stamped) entries summed over
	// every secondary index; IndexEntriesRaw additionally counts
	// death-stamped entries the reclaimer has not pruned yet. Raw minus live is
	// the churn backlog — the gap that made EstimateRange over-estimate
	// before it was live-scaled.
	IndexEntries    int64 `metric:"ankerdb_index_entries_live,gauge" help:"live secondary-index entries"`
	IndexEntriesRaw int64 `metric:"ankerdb_index_entries_raw,gauge" help:"total secondary-index entries incl. death-stamped"`

	// Growable tables (Txn.Insert / Txn.Delete).
	RowInserts    uint64 `metric:"ankerdb_rows_inserted_total,counter" help:"rows transactionally born"`      // committed inserts
	RowDeletes    uint64 `metric:"ankerdb_rows_deleted_total,counter" help:"rows transactionally killed"`     // committed deletes
	RowsReclaimed uint64 `metric:"ankerdb_rows_reclaimed_total,counter" help:"dead rows moved to free lists"` // by the reclaimer
	RowsFree      int    `metric:"ankerdb_rows_free,gauge" help:"free-list slots awaiting reuse"`
	TableCapacity int    `metric:"ankerdb_table_capacity_rows,gauge" help:"mapped row capacity over all tables"`

	// Simulated virtual memory subsystem (COW page copies, faults,
	// VMA bookkeeping, vm_snapshot calls, ...). SimKernelTime is
	// VM.SimTime under the WithCostModel model: what those counts would
	// cost a real kernel. It is never spent, so engine wall time holds
	// none of it.
	VM            VMStats       `metric:"-"`
	SimKernelTime time.Duration `metric:"ankerdb_sim_kernel_seconds_total,seconds" help:"simulated kernel time: kernel event counts priced by the cost model"`
	MappedBytes   uint64        `metric:"ankerdb_mapped_bytes,gauge" help:"virtual size of the simulated process"`
	NumVMAs       int           `metric:"ankerdb_vmas,gauge" help:"VMA count (Figure 5a's x-axis)"`

	// Phase-latency histograms (log2 nanosecond buckets — see Hist).
	// Stats snapshots them before loading any counter, and every
	// instrumented site increments its companion counter before
	// observing, so a histogram's Count never exceeds its counter
	// mid-flight and equals it once writers quiesce (e.g.
	// SnapshotCreateHist.Count == SnapshotsCreated,
	// QueryExecHist.Count == QueriesRun,
	// CommitValidateHist.Count == CommitBatches).
	// The uncontended TryLock path is unobserved.
	CommitLockWaitHist Hist `metric:"ankerdb_commit_lock_wait_seconds,latency" help:"contended shard commit lock acquisition wait"`
	CommitValidateHist Hist `metric:"ankerdb_commit_validate_seconds,latency" help:"per-batch precision-locking validation"`
	CommitInstallHist  Hist `metric:"ankerdb_commit_install_seconds,latency" help:"per-batch write materialisation"`
	// One observation per batch that logged records.
	CommitFsyncHist Hist `metric:"ankerdb_commit_fsync_seconds,latency" help:"per-batch WAL append and sync"`
	// Fig 5's y-axis, labelled by strategy.
	SnapshotCreateHist Hist `metric:"ankerdb_snapshot_create_seconds,latency,strategy" help:"column snapshot creation latency by strategy"`
	QueryExecHist      Hist `metric:"ankerdb_query_exec_seconds,latency" help:"query end-to-end execution latency"`
	CheckpointHist     Hist `metric:"ankerdb_checkpoint_seconds,latency" help:"checkpoint duration"`
	// At most one observation.
	RecoveryReplayHist Hist `metric:"ankerdb_recovery_replay_seconds,latency" help:"Open-time recovery replay duration"`
	// Explicit and commit-path passes.
	VacuumHist Hist `metric:"ankerdb_vacuum_seconds,latency" help:"vacuum pass duration"`

	// Replication & serving tier (zero without WithServeAddr /
	// WithReplicaOf). Primary side: connected replica feeds, stream
	// frames released, subscribers dropped for falling behind, the
	// published watermark, and the worst replica lag — the primary's
	// completed commit count beyond the replica's newest acknowledged
	// applied timestamp. ReplicaLagHist buckets are commit COUNTS (log2),
	// not nanoseconds, one observation per ack received.
	Serving            bool   `metric:"-"`
	ConnectedReplicas  int    `metric:"ankerdb_repl_connected_replicas,gauge,repl" help:"replica feeds currently connected"`
	ReplFramesStreamed uint64 `metric:"ankerdb_repl_frames_streamed_total,counter,repl" help:"stream records released to replica feeds"`
	ReplSubscriberDrop uint64 `metric:"ankerdb_repl_subscriber_drops_total,counter,repl" help:"replica feeds dropped for falling behind"`
	ReplWatermark      uint64 `metric:"ankerdb_repl_watermark,gauge,repl" help:"published completion watermark"`
	MaxReplicaLag      uint64 `metric:"ankerdb_repl_max_lag_commits,gauge,repl" help:"worst connected-replica lag in committed timestamps"`
	ReplicaLagHist     Hist   `metric:"ankerdb_repl_lag_commits,counts,repl" help:"replica lag per ack, in committed timestamps"`

	// Replica side: whether this DB replicates (until Promote), the
	// connector's health, and the staleness bound — ReplicaAppliedTS is
	// the newest commit timestamp applied, ReplicaSourceTS the newest
	// watermark the primary advertised; reads see everything at or below
	// CompletedCommitTS, which trails ReplicaSourceTS by the apply lag.
	Replica           bool   `metric:"ankerdb_repl_is_replica,gauge,repl" help:"1 while replicating (0 after Promote)"`
	Promoted          bool   `metric:"ankerdb_repl_promoted,gauge,repl" help:"1 once promoted to primary"`
	ReplicaConnected  bool   `metric:"ankerdb_replica_connected,gauge,repl" help:"1 while the connector holds a live stream"`
	ReplicaAppliedTS  uint64 `metric:"ankerdb_replica_applied_ts,gauge,repl" help:"newest commit timestamp applied from the stream"`
	ReplicaSourceTS   uint64 `metric:"ankerdb_replica_source_ts,gauge,repl" help:"newest watermark the primary advertised"`
	ReplicaFrames     uint64 `metric:"ankerdb_replica_frames_total,counter,repl" help:"stream records applied"`
	ReplicaReconnects uint64 `metric:"ankerdb_replica_reconnects_total,counter,repl" help:"stream reconnections"`
	ReplicaBootstraps uint64 `metric:"ankerdb_replica_bootstraps_total,counter,repl" help:"snapshot bootstraps completed"`
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
	groupSizeH := tel.groupSize.Snapshot()

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
		GroupCommitSize:    groupSizeH,
		ReplicaLagHist:     replLagH,

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
