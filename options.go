package ankerdb

import (
	"runtime"
	"time"

	"ankerdb/internal/fault"
	"ankerdb/internal/phys"
	"ankerdb/internal/snapshot"
	"ankerdb/internal/wal"
)

// SnapshotStrategy selects the snapshot-creation technique OLAP
// transactions read through. The four values are the techniques the
// paper compares head to head in Table 1 and Figure 5.
type SnapshotStrategy string

// Snapshot strategies.
const (
	// Physical eagerly deep-copies the snapshotted columns.
	Physical SnapshotStrategy = snapshot.KindPhysical
	// Fork forks the whole simulated process, HyPer-style; the kernel
	// COW-protects the entire image regardless of what was requested.
	Fork SnapshotStrategy = snapshot.KindFork
	// Rewired re-mmaps main-memory files per VMA and performs manual
	// copy-on-write in user space (RUMA-style).
	Rewired SnapshotStrategy = snapshot.KindRewired
	// VMSnap uses the paper's custom vm_snapshot system call: one
	// kernel entry per column, kernel-grade COW.
	VMSnap SnapshotStrategy = snapshot.KindVMSnap
)

type initialSchema struct {
	schema Schema
	rows   int
}

type config struct {
	strategy     SnapshotStrategy
	cost         CostModel
	pageSize     int
	refreshEvery uint64
	schemas      []initialSchema
	commitShards int // 0 = auto (GOMAXPROCS)
	durDir       string
	syncPolicy   SyncPolicy
	fs           fault.FS // nil = the real file system

	// Automatic checkpoint scheduling (0 = that trigger disabled).
	autoCkptBytes    uint64
	autoCkptRecords  uint64
	autoCkptInterval time.Duration

	// Telemetry (0/"" = disabled).
	slowQueryThreshold time.Duration
	metricsAddr        string

	// Replication & serving tier ("" = disabled).
	serveAddr   string
	replicaOf   string
	namespace   string
	maxSessions int // serving: concurrent session cap (0 = default)
}

// resolveCommitShards turns the configured shard count into the number
// of commit shards to build: the auto value follows GOMAXPROCS, the
// parallelism actually available to the commit pipeline.
func (c *config) resolveCommitShards() int {
	if c.commitShards > 0 {
		return c.commitShards
	}
	return runtime.GOMAXPROCS(0)
}

func defaultConfig() config {
	return config{
		strategy:     VMSnap,
		cost:         DefaultCost,
		pageSize:     phys.DefaultPageSize,
		refreshEvery: 1, // the paper's high-frequency mode: refresh on every commit
	}
}

// Option configures a DB at Open time.
type Option func(*config)

// WithSnapshotStrategy selects the snapshot technique (default VMSnap,
// the paper's contribution).
func WithSnapshotStrategy(s SnapshotStrategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithCostModel sets the model Stats.SimKernelTime prices the
// simulated kernel's event counts with (default DefaultCost). It changes
// what is reported, not how long anything runs.
func WithCostModel(m CostModel) Option {
	return func(c *config) { c.cost = m }
}

// WithSnapshotRefresh makes OLAP snapshots refresh after every n
// commits: a new snapshot generation is started once n commits have
// completed since the current generation's timestamp. n == 0 disables
// commit-count-based refresh. Default 1, the paper's high-frequency
// mode.
func WithSnapshotRefresh(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.refreshEvery = uint64(n)
	}
}

// WithCommitShards partitions the commit pipeline into n shards:
// commit validation and version-chain installation are serialized per
// column shard instead of globally, so transactions with disjoint
// column footprints commit in parallel and same-shard commits are
// batched under one lock acquisition (group commit). n = 1 restores
// the paper's fully serialized commit phase (the Figure 11 baseline)
// with identical semantics. n <= 0 (and the default, when the option
// is omitted) selects GOMAXPROCS shards.
func WithCommitShards(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.commitShards = n
	}
}

// WithInitialSchema creates the table at Open, before any transaction
// can run. Equivalent to calling CreateTable immediately after Open.
// With durability enabled, tables the recovered state already contains
// are kept as recovered instead of re-created.
func WithInitialSchema(schema Schema, rows int) Option {
	return func(c *config) { c.schemas = append(c.schemas, initialSchema{schema, rows}) }
}

// SyncPolicy selects when write-ahead-log appends are fsynced; see the
// policy constants. It only matters together with WithDurability.
type SyncPolicy = wal.SyncPolicy

// Sync policies for WithSyncPolicy.
const (
	// SyncGroupOnly (the default) fsyncs once per group-commit batch:
	// every Commit that returns nil is durable, and the fsync cost
	// amortizes over the batch exactly like the shard lock acquisition.
	SyncGroupOnly = wal.SyncGroup
	// SyncAlways fsyncs after every transaction's record individually,
	// forgoing the group amortisation.
	SyncAlways = wal.SyncAlways
	// SyncNone appends without fsyncing: records reach the OS page
	// cache only, so an OS crash (not a process crash followed by a
	// clean Close) can lose recent commits. The fastest policy.
	SyncNone = wal.SyncNone
)

// WithDurability persists the database under dir: committed
// transactions are redo-logged to a per-commit-shard write-ahead log
// (appended and fsynced by the group-commit batch leader, so
// durability amortizes across a batch), DB.Checkpoint writes
// consistent snapshots that truncate the log, and Open replays
// checkpoint + WAL when dir is non-empty. Without this option the
// database is purely in-memory, with the exact pre-durability commit
// path. Bulk loads (DB.Load/LoadStrings) bypass the WAL and become
// durable at the next checkpoint.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithSyncPolicy sets the WAL fsync policy (default SyncGroupOnly).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.syncPolicy = p }
}

// WithFS substitutes the file system the durability stack performs
// every operation through — the fault-injection seam. It exists for
// the crash harness: tests pass a fault.Scripted (internal/fault) to
// crash, tear, or fsync-lie the WAL's disk on a seeded, reproducible
// schedule, then reopen the directory without the option to exercise
// recovery. nil (the default) selects the real file system through a
// passthrough whose only cost is one interface call per operation.
// Only meaningful together with WithDurability.
func WithFS(fs fault.FS) Option {
	return func(c *config) { c.fs = fs }
}

// WithAutoCheckpoint enables automatic checkpoint scheduling: a
// background scheduler runs Checkpoint() once the write-ahead log has
// grown by at least bytes record bytes, or by at least records commit
// and bulk-load records, since the last completed checkpoint (whichever
// threshold is crossed first; either may be 0 to disable that trigger).
// Automatic, manual, and Close-time checkpoints coordinate through the
// same mutex, so only one checkpoint runs at a time; writers are never
// stalled either way, because every checkpoint streams a pinned
// snapshot generation. Only meaningful together with WithDurability.
// The default (option omitted, or both thresholds 0) keeps checkpoints
// purely manual.
func WithAutoCheckpoint(bytes, records uint64) Option {
	return func(c *config) {
		c.autoCkptBytes = bytes
		c.autoCkptRecords = records
	}
}

// WithAutoCheckpointInterval additionally bounds the time between
// checkpoints: if d elapses with new WAL records appended since the
// last checkpoint, the scheduler checkpoints even though no size
// threshold fired — so a slow trickle of commits cannot keep recovery
// replay unbounded. Zero (the default) disables the timer. Only
// meaningful together with WithDurability.
func WithAutoCheckpointInterval(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			d = 0
		}
		c.autoCkptInterval = d
	}
}

// WithSlowQueryThreshold enables the slow-query log: every engine
// query (Txn.Query / DB.Query) whose end-to-end execution takes at
// least d is retained — with its per-operator row counts, zone-map
// skip counts, index-route decision and morsel count — readable via
// DB.SlowQueries and rendered by DB.TraceDump. The newest 64 entries
// are kept. Zero (the default) disables the log; the per-query cost
// when a query is NOT slow is a single duration comparison.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			d = 0
		}
		c.slowQueryThreshold = d
	}
}

// WithServeAddr opens a network serving endpoint on addr (host:0
// picks a free port — see DB.ServeAddr): remote clients Dial it to run
// Session transactions against this database, and — when durability is
// enabled — replicas opened WithReplicaOf stream the write-ahead log
// from it. The server is private to this DB (namespace "default"; use
// NewServer + Register to front several databases) and is shut down by
// DB.Close. Omitted (the default), no listener is opened.
func WithServeAddr(addr string) Option {
	return func(c *config) { c.serveAddr = addr }
}

// WithReplicaOf opens the database as a read replica of the primary
// serving at addr (a WithServeAddr / NewServer endpoint): Open
// bootstraps from the primary's schema log and a consistent snapshot,
// then a background connector applies the primary's WAL record stream
// continuously through the same idempotent-by-commitTS rules crash
// recovery uses. The replica serves OLAP reads at bounded, reported
// staleness (Stats.ReplicaAppliedTS against the primary's commit
// watermark) and rejects every local write with ErrReplicaRead until
// DB.Promote. Combine with WithDurability to make the replica's own
// state crash-recoverable and eligible for warm promotion; combine
// with WithServeAddr to chain replicas or serve remote read sessions.
func WithReplicaOf(addr string) Option {
	return func(c *config) { c.replicaOf = addr }
}

// WithNamespace sets the tenant namespace this database registers or
// requests on the wire (default "default"): the namespace a
// WithServeAddr listener registers itself under, and the one a
// WithReplicaOf connector asks its primary for.
func WithNamespace(ns string) Option {
	return func(c *config) { c.namespace = ns }
}

// WithServeMaxSessions caps concurrent remote sessions accepted by the
// WithServeAddr listener (admission control; excess dials are refused
// with ErrTooManySessions rather than queued). 0 (the default) selects
// 256. Replica stream connections are not counted — their backpressure
// is the publisher's bounded per-subscriber buffer.
func WithServeMaxSessions(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.maxSessions = n
	}
}

// WithMetricsServer serves the observability endpoint on addr (e.g.
// "127.0.0.1:9100", or host:0 to pick a free port — see
// DB.MetricsAddr): /metrics in Prometheus text format (the same bytes
// DB.MetricsText writes), /debug/vars (expvar, including an "ankerdb"
// map of per-DB Stats), /debug/pprof (the standard profiles), and
// /debug/trace (the flight-recorder dump). The server uses its own
// mux — never http.DefaultServeMux — and is shut down by DB.Close.
// Omitted (the default), no listener is opened and serving costs
// nothing.
func WithMetricsServer(addr string) Option {
	return func(c *config) { c.metricsAddr = addr }
}
