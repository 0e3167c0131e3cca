package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"ankerdb"
)

// The per-layer numbers of the traced pass come from three sources,
// all outside the engine: (A) spans the benchmark records around each
// public call, (B) Stats deltas across the traced window, and (C) the
// fixed-input micro-kernels of kernels.go.

// emitSpan emits the median self time of the spans called span,
// converted from nanoseconds by dividing by div. Nothing is emitted
// when no such span was recorded.
func (r *run) emitSpan(metric, span string, self map[string][]float64, div float64) {
	vals := self[span]
	if len(vals) == 0 {
		return
	}
	r.emit(metric, median(vals)/div, int64(len(vals)))
}

// histMean returns the mean, in nanoseconds, of the observations b
// has beyond a (the engine's log2 buckets are too coarse for
// quantiles; count and sum are exact).
func histMean(a, b ankerdb.Hist) (float64, int64) {
	n := b.Count - a.Count
	if n == 0 {
		return 0, 0
	}
	return float64(b.SumNanos-a.SumNanos) / float64(n), int64(n)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// emitCommitLayers emits the commit-pipeline and MVCC numbers from
// the Stats of the database that took the window's OLTP load.
func (r *run) emitCommitLayers(a, b ankerdb.Stats) {
	for _, h := range []struct {
		name string
		a, b ankerdb.Hist
	}{
		{"commit.validate_mean_us", a.CommitValidateHist, b.CommitValidateHist},
		{"commit.install_mean_us", a.CommitInstallHist, b.CommitInstallHist},
		{"commit.lockwait_mean_us", a.CommitLockWaitHist, b.CommitLockWaitHist},
	} {
		mean, n := histMean(h.a, h.b)
		r.emit(h.name, mean/1e3, n)
	}
	commits := b.Commits - a.Commits
	r.emit("commit.batch_size_mean", ratio(commits, b.CommitBatches-a.CommitBatches), int64(commits))
	r.emit("commit.cross_shard_share", ratio(b.CommitShardConflicts-a.CommitShardConflicts, commits), int64(commits))
	r.emit("mvcc.version_nodes", float64(b.VersionNodes), 1)
	mean, n := histMean(a.VacuumHist, b.VacuumHist)
	r.emit("mvcc.vacuum_mean_ms", mean/1e6, n)
	r.emit("vmem.cow_pages_per_commit", ratio(b.VM.COWBreaks-a.VM.COWBreaks, commits), int64(commits))
	r.emit("vmem.vmas", float64(b.NumVMAs), 1)
}

// emitOLAPLayers emits the snapshot and query-engine numbers from the
// Stats of the database that took the window's OLAP load.
func (r *run) emitOLAPLayers(a, b ankerdb.Stats) {
	olap := b.OLAPBegun - a.OLAPBegun
	r.emit("snapmgr.snapshots_per_olap_txn", ratio(b.SnapshotsCreated-a.SnapshotsCreated, olap), int64(olap))
	mean, n := histMean(a.SnapshotCreateHist, b.SnapshotCreateHist)
	r.emit("snapshot.create_mean_us", mean/1e3, n)
	mean, n = histMean(a.QueryExecHist, b.QueryExecHist)
	r.emit("query.exec_mean_ms", mean/1e6, n)
	skipped := b.ZoneMapSkippedChunks - a.ZoneMapSkippedChunks
	scanned := b.ZoneMapScannedChunks - a.ZoneMapScannedChunks
	r.emit("query.zone_skip_share", ratio(skipped, skipped+scanned), int64(skipped+scanned))
	queries := b.QueriesRun - a.QueriesRun
	r.emit("query.index_backed_share", ratio(b.IndexBackedQueries-a.IndexBackedQueries, queries), int64(queries))
}

// allocsPer runs fn n times on this goroutine with nothing else
// running and returns heap allocations and bytes per call.
func allocsPer(n int, fn func() error) (allocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err = fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

// emitRuntime emits what explains outliers rather than what a change
// targets: collector activity over the whole run, peak memory and the
// host probe (the slower of the readings before set-up and after the
// window).
func (r *run) emitRuntime() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.emit("runtime.gc_cycles", float64(m.NumGC), 1)
	r.emit("runtime.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int64(m.NumGC))
	r.emit("runtime.peak_rss_mb", peakRSSMB(), 1)
	r.emit("host.probe_mops", slices.Min(r.probes), int64(len(r.probes)))
}

// peakRSSMB reads VmHWM; 0 where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
