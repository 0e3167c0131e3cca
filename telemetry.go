package ankerdb

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/telemetry"
)

// Telemetry wiring: every hot phase of the engine feeds a lock-free
// log2 latency histogram (internal/telemetry), every notable state
// transition lands in an always-on flight-recorder ring, and queries
// slower than WithSlowQueryThreshold are captured with their full
// per-operator breakdown. Exporters: Stats carries histogram
// snapshots, MetricsText renders Prometheus text, TraceDump renders
// the flight recorder, and WithMetricsServer serves all of it (plus
// expvar and pprof) over HTTP.

// Hist is an immutable latency-histogram snapshot: log2 nanosecond
// buckets (Buckets[i] counts observations below 2^i ns), a count and
// a cumulative sum, with Mean/Quantile/Merge/String helpers. Stats
// exposes one per instrumented phase.
type Hist = telemetry.Hist

// HistBucketBound returns the exclusive upper bound of Hist bucket i;
// the last bucket is unbounded.
func HistBucketBound(i int) time.Duration { return telemetry.BucketBound(i) }

// traceRingSize is the flight-recorder capacity: the newest this many
// events survive for TraceDump. Sized to hold a useful post-mortem
// window while keeping the always-on ring's footprint (~96 KiB of
// noscan memory) negligible next to any real working set — on small
// heaps the ring raises the collector's live floor, so bigger is not
// free.
const traceRingSize = 2048

// slowLogCap bounds the slow-query log: the newest this many entries
// survive for SlowQueries.
const slowLogCap = 64

// dbTelemetry is the per-DB observability state. It lives by value
// inside DB (histograms are atomics and must not be copied; DB is
// only ever handled by pointer).
type dbTelemetry struct {
	rec *telemetry.Recorder

	// Commit pipeline phases. Lock-wait is observed per committer,
	// validate/install/fsync once per batch (the amortized granularity
	// the batch actually pays them at).
	commitLockWait telemetry.Histogram
	commitValidate telemetry.Histogram
	commitInstall  telemetry.Histogram
	commitFsync    telemetry.Histogram

	snapCreate telemetry.Histogram // per column snapshot (Fig 5's y-axis)
	queryExec  telemetry.Histogram // Query.Run end to end
	checkpoint telemetry.Histogram // Checkpoint duration
	recovery   telemetry.Histogram // Open-time replay (one observation)
	vacuum     telemetry.Histogram // explicit + commit-path vacuum passes

	// replLag observes, at each replica ack the primary receives, how
	// many committed timestamps the replica trails by — a COUNT, not a
	// duration; it rides the duration histogram type for its power-of-
	// two buckets and is rendered with raw bounds.
	replLag telemetry.Histogram

	queryIDs atomic.Uint64

	slowThresh time.Duration // WithSlowQueryThreshold; 0 = disabled

	slowMu   sync.Mutex
	slow     []SlowQuery
	slowNext int
}

// SlowQuery is one slow-query log entry: a query whose end-to-end
// execution took at least WithSlowQueryThreshold, with the execution
// statistics (per-operator rows in/out, zone-map skip counts, the
// index-route decision, morsel count) needed to attribute the time.
type SlowQuery struct {
	At       time.Time     // completion wall-clock time
	Duration time.Duration // end-to-end Run latency
	Table    string        // probe table
	Stats    QueryStats
}

func (t *dbTelemetry) noteSlow(q SlowQuery) {
	t.slowMu.Lock()
	if len(t.slow) < slowLogCap {
		t.slow = append(t.slow, q)
	} else {
		t.slow[t.slowNext] = q
		t.slowNext = (t.slowNext + 1) % slowLogCap
	}
	t.slowMu.Unlock()
}

// SlowQueries returns the retained slow-query log entries, oldest
// first. Empty unless WithSlowQueryThreshold is set and queries
// crossed it.
func (db *DB) SlowQueries() []SlowQuery {
	t := &db.tel
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]SlowQuery, 0, len(t.slow))
	out = append(out, t.slow[t.slowNext:]...)
	out = append(out, t.slow[:t.slowNext]...)
	return out
}

// TraceDump writes the flight recorder's surviving events (oldest
// first) and the slow-query log to w: the first stop when attributing
// a stall after the fact. The recorder is always on; events older
// than its ring capacity are gone.
func (db *DB) TraceDump(w io.Writer) {
	rec := db.tel.rec
	fmt.Fprintf(w, "# ankerdb flight recorder: %d events recorded, ring capacity %d\n",
		rec.Seq(), traceRingSize)
	rec.WriteTrace(w)
	if slow := db.SlowQueries(); len(slow) > 0 {
		fmt.Fprintf(w, "# slow queries (threshold %v):\n", db.tel.slowThresh)
		for _, q := range slow {
			st := q.Stats
			fmt.Fprintf(w, "%s  %s  table=%s morsels=%d rows=%d/%d blocks=%d skipped=%d index=%v\n",
				q.At.Format(time.RFC3339Nano), q.Duration, q.Table,
				st.Morsels, st.RowsScanned, st.RowsEmitted,
				st.BlocksScanned, st.BlocksSkipped, st.IndexRouted)
			for _, op := range st.Operators {
				fmt.Fprintf(w, "    %-12s in=%d out=%d\n", op.Op, op.RowsIn, op.RowsOut)
			}
		}
	}
}

// MetricsText renders every engine counter and phase histogram in
// Prometheus text exposition format under the stable ankerdb_* name
// schema (counters end in _total, histograms in _seconds). The same
// bytes are served at /metrics by WithMetricsServer.
func (db *DB) MetricsText(w io.Writer) error {
	s := db.Stats()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	hist := func(name, help, labels string, h Hist) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		h.WriteProm(w, name, labels)
	}

	fmt.Fprintf(w, "# HELP ankerdb_info engine configuration\n# TYPE ankerdb_info gauge\n")
	fmt.Fprintf(w, "ankerdb_info{strategy=%q,sync=%q,durable=\"%v\",shards=\"%d\"} 1\n",
		telemetry.PromEscape(s.Strategy), telemetry.PromEscape(s.SyncPolicy), s.Durable, s.CommitShards)

	// Transaction pipeline.
	counter("ankerdb_txn_commits_total", "OLTP commits that materialised writes", s.Commits)
	counter("ankerdb_txn_empty_commits_total", "read-only OLTP commits", s.EmptyCommits)
	counter("ankerdb_txn_aborts_total", "explicit aborts plus validation failures", s.Aborts)
	counter("ankerdb_txn_conflicts_total", "precision-locking validation failures", s.Conflicts)
	counter("ankerdb_txn_oltp_begun_total", "OLTP transactions begun", s.OLTPBegun)
	counter("ankerdb_txn_olap_begun_total", "OLAP transactions begun", s.OLAPBegun)
	gauge("ankerdb_txn_active", "running OLTP transactions", int64(s.ActiveTxns))

	// Group commit.
	counter("ankerdb_commit_batches_total", "commit batches processed", s.CommitBatches)
	counter("ankerdb_commit_cross_shard_total", "commits spanning multiple shards", s.CommitShardConflicts)
	fmt.Fprintf(w, "# HELP ankerdb_group_commit_size transactions per shard-lock acquisition\n")
	fmt.Fprintf(w, "# TYPE ankerdb_group_commit_size histogram\n")
	var cum uint64
	for i, b := range s.GroupCommitSize.Buckets {
		cum += b
		if i == len(s.GroupCommitSize.Buckets)-1 {
			fmt.Fprintf(w, "ankerdb_group_commit_size_bucket{le=\"+Inf\"} %d\n", cum)
		} else {
			fmt.Fprintf(w, "ankerdb_group_commit_size_bucket{le=\"%d\"} %d\n", GroupCommitBucketBounds[i], cum)
		}
	}
	// Batch sizes sum to processed requests: committed plus conflicted.
	fmt.Fprintf(w, "ankerdb_group_commit_size_sum %d\n", s.Commits+s.Conflicts)
	fmt.Fprintf(w, "ankerdb_group_commit_size_count %d\n", s.GroupCommitSize.Observations())

	// Commit phase latency.
	hist("ankerdb_commit_lock_wait_seconds", "contended shard commit lock acquisition wait", "", s.CommitLockWaitHist)
	hist("ankerdb_commit_validate_seconds", "per-batch precision-locking validation", "", s.CommitValidateHist)
	hist("ankerdb_commit_install_seconds", "per-batch write materialisation", "", s.CommitInstallHist)
	hist("ankerdb_commit_fsync_seconds", "per-batch WAL append and sync", "", s.CommitFsyncHist)

	// Durability.
	counter("ankerdb_wal_bytes_total", "WAL record bytes appended", s.WALBytes)
	counter("ankerdb_wal_records_total", "WAL commit and bulk-load records appended", s.WALRecords)
	counter("ankerdb_wal_fsyncs_total", "fsyncs issued", s.FsyncCount)
	counter("ankerdb_checkpoints_total", "checkpoints completed", s.CheckpointCount)
	counter("ankerdb_auto_checkpoints_total", "checkpoints triggered by the scheduler", s.AutoCheckpointCount)
	counter("ankerdb_recovery_replayed_txns_total", "WAL commit records replayed by Open", s.RecoveryReplayedTxns)
	counter("ankerdb_recovery_replayed_loads_total", "bulk-load chunk records replayed by Open", s.RecoveryReplayedLoads)
	hist("ankerdb_checkpoint_seconds", "checkpoint duration", "", s.CheckpointHist)
	hist("ankerdb_recovery_replay_seconds", "Open-time recovery replay duration", "", s.RecoveryReplayHist)

	// Snapshot lifecycle. The creation histogram is labeled by
	// strategy, the paper's Figure 5 comparison axis.
	counter("ankerdb_snapshots_created_total", "column snapshots created", s.SnapshotsCreated)
	counter("ankerdb_snapshots_released_total", "column snapshots released", s.SnapshotsReleased)
	gauge("ankerdb_snapshots_active", "column snapshots currently held", int64(s.ActiveSnapshots))
	counter("ankerdb_snapshot_generations_total", "snapshot generations started", s.Generations)
	gauge("ankerdb_snapshot_staleness_commits", "commits the current generation lags", int64(s.SnapshotStaleness))
	gauge("ankerdb_snapshot_pinned_generations", "generations still referenced", int64(s.PinnedGenerations))
	hist("ankerdb_snapshot_create_seconds", "column snapshot creation latency by strategy", fmt.Sprintf("strategy=%q", telemetry.PromEscape(s.Strategy)), s.SnapshotCreateHist)

	// Query engine.
	counter("ankerdb_queries_total", "queries executed through the engine", s.QueriesRun)
	counter("ankerdb_zone_blocks_skipped_total", "probe blocks pruned by zone maps", s.ZoneMapSkippedChunks)
	counter("ankerdb_zone_blocks_scanned_total", "probe blocks read", s.ZoneMapScannedChunks)
	counter("ankerdb_index_probes_total", "secondary-index probes served", s.IndexProbes)
	counter("ankerdb_index_backed_queries_total", "engine queries routed through an index", s.IndexBackedQueries)
	hist("ankerdb_query_exec_seconds", "query end-to-end execution latency", "", s.QueryExecHist)

	// Secondary indexes and tables.
	gauge("ankerdb_index_entries_live", "live secondary-index entries", s.IndexEntries)
	gauge("ankerdb_index_entries_raw", "total secondary-index entries incl. death-stamped", s.IndexEntriesRaw)
	counter("ankerdb_rows_inserted_total", "rows transactionally born", s.RowInserts)
	counter("ankerdb_rows_deleted_total", "rows transactionally killed", s.RowDeletes)
	counter("ankerdb_rows_reclaimed_total", "dead rows moved to free lists", s.RowsReclaimed)
	gauge("ankerdb_rows_free", "free-list slots awaiting reuse", int64(s.RowsFree))
	gauge("ankerdb_table_capacity_rows", "mapped row capacity over all tables", int64(s.TableCapacity))
	gauge("ankerdb_version_nodes", "live version-chain nodes", s.VersionNodes)
	counter("ankerdb_versions_gced_total", "version nodes removed by vacuum", uint64(s.VersionsGCed))
	counter("ankerdb_vacuums_total", "vacuum passes", s.Vacuums)
	hist("ankerdb_vacuum_seconds", "vacuum pass duration", "", s.VacuumHist)

	// Replication & serving tier. The lag histogram counts COMMITS a
	// replica trails by (one observation per ack) — rendered by hand
	// with raw power-of-two bounds, because WriteProm's bounds are
	// nanosecond-specific.
	if s.Serving || s.Replica || s.Promoted {
		gauge("ankerdb_repl_connected_replicas", "replica feeds currently connected", int64(s.ConnectedReplicas))
		counter("ankerdb_repl_frames_streamed_total", "stream records released to replica feeds", s.ReplFramesStreamed)
		counter("ankerdb_repl_subscriber_drops_total", "replica feeds dropped for falling behind", s.ReplSubscriberDrop)
		gauge("ankerdb_repl_watermark", "published completion watermark", int64(s.ReplWatermark))
		gauge("ankerdb_repl_max_lag_commits", "worst connected-replica lag in committed timestamps", int64(s.MaxReplicaLag))
		fmt.Fprintf(w, "# HELP ankerdb_repl_lag_commits replica lag per ack, in committed timestamps\n")
		fmt.Fprintf(w, "# TYPE ankerdb_repl_lag_commits histogram\n")
		lh := s.ReplicaLagHist
		var lcum uint64
		ltop := 0
		for i, b := range lh.Buckets {
			if b > 0 {
				ltop = i
			}
		}
		for i := 0; i <= ltop && i < len(lh.Buckets)-1; i++ {
			lcum += lh.Buckets[i]
			fmt.Fprintf(w, "ankerdb_repl_lag_commits_bucket{le=\"%d\"} %d\n", uint64(1)<<uint(i)-1, lcum)
		}
		fmt.Fprintf(w, "ankerdb_repl_lag_commits_bucket{le=\"+Inf\"} %d\n", lh.Count)
		fmt.Fprintf(w, "ankerdb_repl_lag_commits_sum %d\n", lh.SumNanos)
		fmt.Fprintf(w, "ankerdb_repl_lag_commits_count %d\n", lh.Count)
		gauge("ankerdb_repl_is_replica", "1 while replicating (0 after Promote)", b2i(s.Replica))
		gauge("ankerdb_repl_promoted", "1 once promoted to primary", b2i(s.Promoted))
		gauge("ankerdb_replica_connected", "1 while the connector holds a live stream", b2i(s.ReplicaConnected))
		gauge("ankerdb_replica_applied_ts", "newest commit timestamp applied from the stream", int64(s.ReplicaAppliedTS))
		gauge("ankerdb_replica_source_ts", "newest watermark the primary advertised", int64(s.ReplicaSourceTS))
		counter("ankerdb_replica_frames_total", "stream records applied", s.ReplicaFrames)
		counter("ankerdb_replica_reconnects_total", "stream reconnections", s.ReplicaReconnects)
		counter("ankerdb_replica_bootstraps_total", "snapshot bootstraps completed", s.ReplicaBootstraps)
	}

	// Simulated virtual memory.
	gauge("ankerdb_mapped_bytes", "virtual size of the simulated process", int64(s.MappedBytes))
	gauge("ankerdb_vmas", "VMA count (Figure 5a's x-axis)", int64(s.NumVMAs))
	fmt.Fprintf(w, "# HELP ankerdb_sim_kernel_seconds_total simulated kernel time: kernel event counts priced by the cost model\n")
	fmt.Fprintf(w, "# TYPE ankerdb_sim_kernel_seconds_total counter\nankerdb_sim_kernel_seconds_total %g\n", s.SimKernelTime.Seconds())

	counter("ankerdb_trace_events_total", "flight-recorder events recorded", db.tel.rec.Seq())
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// expvar publication: one process-wide "ankerdb" variable mapping each
// open DB (labeled by its metrics address or a process-unique id) to
// its Stats snapshot. Registered lazily by the first metrics server so
// tests opening thousands of DBs pay nothing.
var (
	expOnce sync.Once
	expMu   sync.Mutex
	expDBs  = map[*DB]string{}
)

func expvarRegister(db *DB, label string) {
	expOnce.Do(func() {
		expvar.Publish("ankerdb", expvar.Func(func() any {
			expMu.Lock()
			defer expMu.Unlock()
			out := make(map[string]Stats, len(expDBs))
			for d, l := range expDBs {
				out[l] = d.Stats()
			}
			return out
		}))
	})
	expMu.Lock()
	expDBs[db] = label
	expMu.Unlock()
}

func expvarUnregister(db *DB) {
	expMu.Lock()
	delete(expDBs, db)
	expMu.Unlock()
}

// startMetricsServer brings up the opt-in observability endpoint
// (WithMetricsServer): /metrics in Prometheus text format, /debug/vars
// (expvar, including the "ankerdb" Stats map), /debug/pprof, and
// /debug/trace serving TraceDump. A dedicated mux, not
// http.DefaultServeMux, so embedding applications' handlers are never
// touched. addr may be host:0 to pick a free port (see MetricsAddr).
func (db *DB) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ankerdb: metrics server: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = db.MetricsText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		db.TraceDump(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	db.metricsLn = ln
	db.metricsSrv = &http.Server{Handler: mux}
	expvarRegister(db, ln.Addr().String())
	go func() { _ = db.metricsSrv.Serve(ln) }()
	return nil
}

// MetricsAddr returns the metrics endpoint's listen address (useful
// with WithMetricsServer("127.0.0.1:0")), or "" when no metrics
// server is running.
func (db *DB) MetricsAddr() string {
	if db.metricsLn == nil {
		return ""
	}
	return db.metricsLn.Addr().String()
}

func (db *DB) stopMetricsServer() {
	if db.metricsSrv != nil {
		expvarUnregister(db)
		_ = db.metricsSrv.Close()
		db.metricsSrv = nil
		db.metricsLn = nil
	}
}
