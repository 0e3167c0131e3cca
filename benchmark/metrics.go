package main

import "encoding/json"

// The metric names below are the benchmark's vocabulary: later changes
// cite them verbatim, BENCHMARK.json at the repository root lists them
// (regenerate it with -contract), and every run emits each of them
// exactly once — all of endToEnd untraced, all of perLayer traced.

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with tracing off. bound is the share of the
// parent's median by which a metric may worsen. The driver accepts a
// benchmark only if every ten-run spread stays inside the metric's
// bound and asks for a third of it; on the builder's 2-vCPU guest the
// host's memory system alone moves whole runs by 10-25 % (a loop of
// dependent loads that touches no engine code spreads 13 % over the
// runs in which htap's rates spread 14-18 %), so every bound is the
// contract's maximum, not the 10 % ISSUE 13 hoped for. README.md has
// the measurements.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"oltp_txn_per_s", "txn/s", higher, 0.25},
	{"oltp_txn_p50_us", "us", lower, 0.25},
	{"oltp_txn_p99_us", "us", lower, 0.25},
	{"olap_txn_per_s", "txn/s", higher, 0.25},
	{"olap_txn_p50_ms", "ms", lower, 0.25},
}

// perLayer comes from the traced pass only. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = []layerMetric{
	// Results of single workloads; the contract's end-to-end set is
	// global, so these are reported here, without a bound.
	{"wal_bytes_per_txn", "B/txn", lower},
	{"recovery_s", "s", lower},
	{"repl_visible_commits_per_s", "commits/s", higher},
	// Demoted from the end-to-end list: see noteOLAPTail.
	{"olap_txn_p95_ms", "ms", lower},

	{"trace.overhead_share", "share", lower},

	{"txn.begin_us", "us", lower},
	{"txn.get_us", "us", lower},
	{"txn.set_us", "us", lower},
	{"txn.commit_us", "us", lower},
	{"commit.validate_mean_us", "us", lower},
	{"commit.install_mean_us", "us", lower},
	{"commit.lockwait_mean_us", "us", lower},
	{"commit.batch_size_mean", "txn", higher},
	{"commit.cross_shard_share", "share", lower},
	{"runtime.allocs_per_oltp_txn", "count", lower},
	{"runtime.alloc_bytes_per_oltp_txn", "B", lower},
	{"mvcc.oracle_ts_ns", "ns", lower},
	{"mvcc.validate_ns", "ns", lower},
	{"mvcc.version_nodes", "count", lower},
	{"mvcc.vacuum_mean_ms", "ms", lower},
	{"root.vacuum_s", "s", lower},

	{"olap.begin_us", "us", lower},
	{"olap.release_us", "us", lower},
	{"snapmgr.snapshots_per_olap_txn", "count", lower},
	{"snapshot.create_mean_us", "us", lower},
	{"snapshot.physical.create_us", "us", lower},
	{"snapshot.fork.create_us", "us", lower},
	{"snapshot.rewired.create_us", "us", lower},
	{"snapshot.vmsnap.create_us", "us", lower},
	{"vmem.vm_snapshot_us", "us", lower},
	{"vmem.cow_fault_ns", "ns", lower},
	{"vmem.cow_pages_per_commit", "count", lower},
	{"vmem.vmas", "count", lower},
	{"cost.sim_kernel_share_oltp", "share", lower},
	{"cost.sim_kernel_share_olap", "share", lower},

	{"storage.scan_mrows_per_s", "Mrows/s", higher},
	{"query.scan_agg_ms", "ms", lower},
	{"query.filter_agg_ms", "ms", lower},
	{"query.zone_range_ms", "ms", lower},
	{"query.join_group_ms", "ms", lower},
	{"query.index_eq_us", "us", lower},
	{"query.exec_mean_ms", "ms", lower},
	{"query.zone_skip_share", "share", higher},
	{"query.index_backed_share", "share", higher},
	{"runtime.alloc_bytes_per_olap_txn", "B", lower},
	{"index.hash_probe_ns", "ns", lower},
	{"index.ordered_range_us", "us", lower},
	{"index.insert_ns", "ns", lower},

	{"wal.append1_us", "us", lower},
	{"wal.append16_us_per_record", "us", lower},
	{"wal.encode_bytes_per_record", "B", lower},
	{"wal.replay_mrec_per_s", "Mrec/s", higher},
	{"wal.fsyncs_per_txn", "count", lower},
	{"wal.fsync_mean_us", "us", lower},
	{"durability.checkpoint_s", "s", lower},
	{"durability.close_s", "s", lower},
	{"durability.replay_mean_s", "s", lower},
	{"durability.recovery_peak_bytes", "B", lower},

	{"client.dial_ms", "ms", lower},
	{"client.begin_rt_us", "us", lower},
	{"client.op_rt_us", "us", lower},
	{"client.commit_rt_us", "us", lower},
	{"wire.round_trips_per_txn", "count", lower},
	{"wire.bytes_per_txn", "B/txn", lower},
	{"wire.ok_resp_bytes", "B", lower},
	{"repl.frame_rt_us", "us", lower},
	{"repl.gob_pair_us", "us", lower},
	{"repl.gob_pair_bytes", "B", lower},
	{"repl.stage_empty_ns", "ns", lower},
	{"repl.stage_full_ns", "ns", lower},
	{"replication.bootstrap_s", "s", lower},
	{"replication.burst_write_ms", "ms", lower},
	{"replication.burst_drain_ms", "ms", lower},
	{"replication.max_lag_commits", "commits", lower},
	{"repl.frames_per_commit", "count", lower},

	{"runtime.gc_cycles", "count", lower},
	{"runtime.gc_pause_ms", "ms", lower},
	{"runtime.peak_rss_mb", "MB", lower},
	{"host.probe_mops", "Mops/s", higher},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the window length the contract runs every workload
// with; the set-ups, warm-up and count-bound phases around it are
// sized so that a run ends within about twice that.
const runSeconds = 15

func contractJSON() []byte {
	wl := make([]workloadDef, len(workloads))
	for i, w := range workloads {
		wl[i] = workloadDef{w.name, w.why}
	}
	b, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  wl,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
