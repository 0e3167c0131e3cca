package ankerdb

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/index"
	"ankerdb/internal/mvcc"
	"ankerdb/internal/repl"
	"ankerdb/internal/snapshot"
	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
	"ankerdb/internal/vmem"
	"ankerdb/internal/wal"
)

// The reclaimer (reclaim.go) wakes every recentPruneEvery completions;
// its chain pass falls due every vacuumEvery installed commit records.
const (
	vacuumEvery      = 4096
	recentPruneEvery = 64
)

// DB is the engine facade: one simulated process hosting columnar
// tables, an MVCC commit pipeline for OLTP transactions, and a snapshot
// lifecycle manager serving OLAP transactions through the configured
// snapshot strategy. All methods are safe for concurrent use.
type DB struct {
	proc  *vmem.Process
	strat snapshot.Strategy
	alloc storage.ColumnAlloc

	oracle *mvcc.Oracle
	activ  *mvcc.ActiveSet
	snaps  *snapManager

	// olapGate serialises snapshot-generation pins against a replica's
	// in-place re-bootstrap. Every pin (OLAP Begin, Checkpoint, serving
	// a bootstrap snapshot) holds the read side for the pin's lifetime;
	// the re-bootstrap holds the write side, draining pinned readers
	// and blocking new pins while readTableSection fast-forwards the
	// arrays (no version-chain pushes) and rebuildDerived resets the
	// visibility logs — either of which breaks a generation pinned
	// across it. Uncontended outside replica reconnects.
	olapGate sync.RWMutex
	// halfBootstrapped is set from the moment a replica bootstrap starts
	// overwriting arrays until one completes. A bootstrap that dies in
	// between (the stream cut or stalled mid-section) leaves rows torn —
	// snapshot data words under old stamps and visibility — so while it
	// is set with the gate free, pinGate refuses every pin and Promote
	// refuses to make the state writable.
	halfBootstrapped atomic.Bool

	// shards partition commit processing by column (see commit.go): the
	// paper's partially sequential commit phase (Section 5.7) becomes
	// per-shard, so disjoint-footprint transactions commit in parallel.
	// With one shard this degenerates to the paper's fully serialized
	// commit phase.
	shards []*commitShard

	// wal is the durability subsystem (nil without WithDurability):
	// batch leaders redo-log whole commit batches under the shard
	// commit lock, and Checkpoint/recovery live in durability.go.
	wal        *wal.Log
	ckptMu     sync.Mutex // one checkpoint (or durable bulk load) at a time
	recovering bool       // Open-time replay: skip re-logging DDL
	// recoveredTxns/recoveredLoads are the numbers of WAL commit and
	// bulk-load records replayed by Open; written once before the DB is
	// shared, read by Stats.
	recoveredTxns    uint64
	recoveredLoads   uint64
	recoveredIndexes int

	// Automatic checkpoint scheduling (channels nil when disabled):
	// kickAutoCkpt wakes the scheduler past a WAL-growth threshold,
	// closing ckptQuit stops it, and Close waits on ckptDone so the log
	// outlives any in-flight scheduled checkpoint. The baselines are the
	// WAL counters at the last completed checkpoint.
	autoCkptBytes   uint64
	autoCkptRecords uint64
	ckptBaseBytes   atomic.Uint64
	ckptBaseRecords atomic.Uint64
	ckptKick        chan struct{}
	ckptQuit        chan struct{}
	ckptDone        chan struct{}

	cost CostModel // prices proc's kernel counts as Stats.SimKernelTime

	// The reclaimer (reclaim.go): gcKick wakes it (kicks coalesce),
	// gcReq carries the passes callers wait for, closing gcQuit stops
	// it, gcDone closes once it has. chainEpoch, installedCommits() /
	// vacuumEvery at its last chain pass, is the reclaimer's own.
	gcKick     chan struct{}
	gcReq      chan gcReq
	gcQuit     chan struct{}
	gcDone     chan struct{}
	chainEpoch uint64

	mu      sync.RWMutex
	tables  map[string]*table
	tabList []*table
	closed  bool

	txnIDs atomic.Uint64
	st     dbCounters

	// tel is the telemetry substrate (telemetry.go): phase-latency
	// histograms, the flight recorder, and the slow-query log. Always
	// initialised; the opt-in metrics server fields are nil without
	// WithMetricsServer.
	tel        dbTelemetry
	metricsLn  net.Listener
	metricsSrv *http.Server

	// Replication & serving tier (replication.go / serve.go). All nil /
	// zero without WithServeAddr / WithReplicaOf. promoted flips once on
	// Promote and releases the replica write guard.
	pub      *repl.Publisher
	srv      *Server
	rep      *replicaState
	promoted atomic.Bool
	peerMu   sync.Mutex
	peers    map[*replPeer]struct{}
}

type dbCounters struct {
	commits         atomic.Uint64
	completions     atomic.Uint64 // counted in the complete hook, paces the reclaimer
	emptyCommits    atomic.Uint64
	aborts          atomic.Uint64
	conflicts       atomic.Uint64
	oltpBegun       atomic.Uint64
	olapBegun       atomic.Uint64
	vacuums         atomic.Uint64
	versionsGCed    atomic.Int64
	rowInserts      atomic.Uint64
	rowDeletes      atomic.Uint64
	rowsReclaimed   atomic.Uint64
	commitBatches   atomic.Uint64
	crossShard      atomic.Uint64
	checkpoints     atomic.Uint64
	autoCheckpoints atomic.Uint64
	queriesRun      atomic.Uint64
	zoneSkipped     atomic.Uint64 // scan blocks pruned by zone maps
	zoneScanned     atomic.Uint64 // scan blocks read by the query engine
	indexProbes     atomic.Uint64 // secondary-index probes served
	indexQueries    atomic.Uint64 // engine queries routed through an index probe
}

// table pairs the storage-layer arrays with the per-column MVCC state
// the commit pipeline and snapshot readers share, plus the row
// allocator that makes the table growable.
type table struct {
	idx  int
	st   *storage.Table
	cols []*column

	// Row slot allocator: amu guards next (the high-water mark — every
	// row ever used is below it) and free (slots whose dead incarnation
	// the reclaimer reclaimed, reused by Insert before the table grows).
	amu  sync.Mutex
	next int
	free []int

	// visMutated is set once any insert or delete has ever been
	// installed (or recovered). While false, every row below
	// InitialRows is alive and nothing above is, so scans skip the
	// per-row visibility checks entirely and OLAP generations never
	// capture the visibility arrays — the exact pre-growable fast path.
	// It only ever transitions false -> true, and always before the
	// mutating commit's timestamp completes, so a reader that finds it
	// false can have no visible row op at its read timestamp.
	visMutated atomic.Bool

	// visLog is the table's visibility delta log (vislog.go): the
	// cumulative insert/delete history that answers COUNT at any
	// reachable timestamp in O(log n).
	visLog atomic.Pointer[visLogState]

	// Table-DDL barrier state (ddl.go). ddlEpoch is bumped by DropTable
	// and Truncate under every shard commit lock; transactions record
	// it when they first stage against the table and the commit path
	// aborts any whose epoch moved — the guard that keeps a commit from
	// installing into a dropped table's unmapped memory or resurrecting
	// truncated rows through the index. dropped marks a tombstoned
	// tabList slot: the name is released for re-creation but the slot
	// index stays occupied, because WAL records and ColumnIDs address
	// tables by slot. freed is written and read only under every shard
	// commit lock (or single-threaded recovery); dropTS is written once,
	// under them, before dropped is set.
	ddlEpoch atomic.Uint64
	dropped  atomic.Bool
	dropTS   uint64
	freed    bool

	// pending counts the row work left for the reclaimer (reclaimDue):
	// deaths, index kills and visibility-log entries, or a drop.
	pending atomic.Int64

	// truncated is set by truncateAt — live, streamed or replayed: the
	// killed rows (birth back to NeverTS) are indistinguishable from
	// never-born ones, so rebuildAllocator must be told not to infer
	// the unmutated initial-rows fast path — which would resurrect
	// exactly the rows the truncation discarded — nor to start the
	// high-water mark above them.
	truncated bool
}

// reserve hands out an exclusive row slot for an insert: a reclaimed
// free slot if one exists, else the next slot above the high-water
// mark, growing the table's mapped capacity (and the per-chunk scan
// metadata of every column) chunk-wise when the mark passes it.
func (t *table) reserve() (int, error) {
	t.amu.Lock()
	defer t.amu.Unlock()
	if n := len(t.free); n > 0 {
		row := t.free[n-1]
		t.free = t.free[:n-1]
		return row, nil
	}
	row := t.next
	if row >= t.st.Capacity() {
		if err := t.st.EnsureCapacity(row + 1); err != nil {
			return 0, err
		}
		t.growMetas()
	}
	t.next++
	return row, nil
}

// release returns reserved-but-never-committed slots (aborted or
// conflicted inserts) to the free list; their birth timestamps are
// still NeverTS, so they were never visible.
func (t *table) release(rows []int) {
	t.amu.Lock()
	t.free = append(t.free, rows...)
	t.amu.Unlock()
}

// liveVisible reports whether row is visible at ts in the live
// visibility arrays: born at or before ts and not dead at or before
// ts. Reads are lock-free; the install order (values, then death
// reset, then birth last) and the reuse guard (rows are only reclaimed
// below the GC floor) make every interleaving resolve to the correct
// verdict for any registered reader timestamp.
func (t *table) liveVisible(row int, ts uint64) bool {
	if b := t.st.Birth().GetU(row); b > ts {
		return false // unborn (NeverTS) or born after ts
	}
	d := t.st.Death().GetU(row)
	return d == 0 || d > ts
}

// growMetas appends fresh per-chunk block metadata to every column
// until it covers the table's capacity. Chunk metadata is append-only
// and individual BlockMeta values never move, so concurrent Note calls
// (under commit shard locks) and lock-free scan reads stay safe across
// growth. Callers serialise growth (t.amu or recovery).
func (t *table) growMetas() {
	chunks := t.st.Capacity() / t.st.ChunkRows()
	for _, c := range t.cols {
		cur := *c.metas.Load()
		if len(cur) >= chunks {
			continue
		}
		next := make([]*mvcc.BlockMeta, len(cur), chunks)
		copy(next, cur)
		for len(next) < chunks {
			next = append(next, mvcc.NewBlockMeta(t.st.ChunkRows()))
		}
		c.metas.Store(&next)
	}
}

// column is one table column: its data and write-timestamp extents plus
// the version chains and per-chunk block metadata of displaced
// versions.
type column struct {
	id    mvcc.ColumnID
	def   ColumnDef
	tab   *table
	data  *storage.Extent
	wts   *storage.Extent
	chain *mvcc.ChainStore
	metas atomic.Pointer[[]*mvcc.BlockMeta] // one per capacity chunk
	dict  *storage.Dict

	// idx is the column's secondary index, nil when none: declared in
	// the schema, or built online by CreateIndex (index_db.go). Commit
	// installation maintains it under the owning shard's commit lock;
	// probes read it lock-free through the pointer.
	idx atomic.Pointer[index.Index]
}

// noteVersioned records that row now carries a version chain, in the
// chunk-grained scan metadata.
func (c *column) noteVersioned(row int) {
	cr := c.tab.st.ChunkRows()
	(*c.metas.Load())[row/cr].Note(row % cr)
}

// widen grows the zone map of row's block to cover v — called on every
// value install (commit.go). Widen-only keeps zones sound against
// concurrent lock-free readers and against deletes: a dead row's value
// may linger (pruning less effective, never wrong) until a vacuum
// recomputes the zone.
func (c *column) widen(row int, v int64) {
	cr := c.tab.st.ChunkRows()
	(*c.metas.Load())[row/cr].Widen(row%cr, v)
}

// loadZones installs zone maps for a bulk load of rows [0, len(vals)).
// A block the load covers fully gets the exact bounds of its loaded
// values — every visible row of it now holds a loaded value, so the
// initial zero zone may be replaced, which is what makes range
// predicates over freshly loaded sorted data prune. A partially
// covered tail block only widens: its remaining initial rows are
// visible with the zero fill, so 0 must stay in its zone.
func (c *column) loadZones(vals []int64) {
	cr := c.tab.st.ChunkRows()
	metas := *c.metas.Load()
	n := len(vals)
	for start := 0; start < n; {
		ci := start / cr
		rel := start - ci*cr
		blk := rel / mvcc.BlockRows
		end := ci*cr + (blk+1)*mvcc.BlockRows
		if ce := (ci + 1) * cr; end > ce {
			end = ce
		}
		if end <= n {
			lo, hi := vals[start], vals[start]
			for _, v := range vals[start+1 : end] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			metas[ci].SetZone(blk, lo, hi)
		} else {
			metas[ci].WidenRange(rel, vals[start:n])
			end = n
		}
		start = end
	}
}

// recomputeZones replaces every block's widen-only zone with the exact
// bounds over the values a reader could still resolve there: in-place
// values of rows visible at some reachable timestamp (skipping rows
// reclaimed or dead at or below floor — no current or future reader
// resolves those), plus every surviving version-chain value, which a
// pinned generation might still reach. The caller must exclude
// concurrent installs into the columns (the reclaimer and truncateAt
// hold every shard commit lock; recovery is single-threaded).
func (c *column) recomputeZones(floor uint64) {
	tab := c.tab
	capacity := tab.st.Capacity()
	cr := tab.st.ChunkRows()
	metas := *c.metas.Load()
	type zacc struct {
		lo, hi int64
		set    bool
	}
	acc := make([][]zacc, len(metas))
	for ci := range metas {
		acc[ci] = make([]zacc, metas[ci].Blocks())
	}
	fold := func(row int, v int64) {
		a := &acc[row/cr][(row%cr)/mvcc.BlockRows]
		if !a.set {
			a.lo, a.hi, a.set = v, v, true
			return
		}
		if v < a.lo {
			a.lo = v
		}
		if v > a.hi {
			a.hi = v
		}
	}
	limit := len(metas) * cr
	if capacity < limit {
		limit = capacity
	}
	if !tab.visMutated.Load() {
		if ir := tab.st.InitialRows(); ir < limit {
			limit = ir
		}
		for row := 0; row < limit; row++ {
			fold(row, c.data.Get(row))
		}
	} else {
		birth, death := tab.st.Birth(), tab.st.Death()
		for row := 0; row < limit; row++ {
			if b := birth.GetU(row); b == storage.NeverTS {
				continue // unborn, reserved, or reclaimed
			}
			if d := death.GetU(row); d != 0 && d <= floor {
				continue // dead below every reachable timestamp
			}
			fold(row, c.data.Get(row))
		}
	}
	// Chain values fold in before publication: a pinned generation can
	// resolve them, so the new zone must cover them from the instant it
	// replaces the old one.
	c.chain.EachVersion(func(row int, val int64) {
		if row < limit {
			fold(row, val)
		}
	})
	for ci, meta := range metas {
		for blk := range acc[ci] {
			a := acc[ci][blk]
			if !a.set {
				a.lo, a.hi = 0, 0 // no resolvable value: zero-filled block
			}
			meta.SetZone(blk, a.lo, a.hi)
		}
	}
}

// Open creates a database configured by opts: purely in-memory by
// default, or durable under WithDurability — in which case a non-empty
// durability directory is recovered (schema log, newest checkpoint,
// then idempotent WAL replay) before Open returns.
func Open(opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	proc := vmem.NewProcess(vmem.WithPageSize(cfg.pageSize))
	strat, err := snapshot.New(string(cfg.strategy), proc)
	if err != nil {
		return nil, err
	}
	db := &DB{
		proc:            proc,
		cost:            cfg.cost,
		strat:           strat,
		alloc:           columnAlloc(proc, strat),
		oracle:          &mvcc.Oracle{},
		activ:           mvcc.NewActiveSet(),
		shards:          newCommitShards(cfg.resolveCommitShards()),
		tables:          map[string]*table{},
		gcKick:          make(chan struct{}, 1),
		gcReq:           make(chan gcReq),
		gcQuit:          make(chan struct{}),
		gcDone:          make(chan struct{}),
		autoCkptBytes:   cfg.autoCkptBytes,
		autoCkptRecords: cfg.autoCkptRecords,
	}
	db.tel.rec = telemetry.NewRecorder(traceRingSize)
	db.tel.slowThresh = cfg.slowQueryThreshold
	db.snaps = newSnapManager(db, cfg.refreshEvery)
	db.oracle.SetCompleteHook(db.onComplete)
	if cfg.durDir != "" {
		wlog, err := wal.OpenFS(cfg.durDir, len(db.shards), cfg.syncPolicy, cfg.fs)
		if err != nil {
			return nil, err
		}
		// Sealed segments are the unit a future replication tier ships;
		// the flight recorder witnesses each seal as it happens.
		wlog.OnSeal = func(shard, records int, lastTS uint64) {
			db.tel.rec.Record(telemetry.EvWALSeal, int64(shard), int64(records), int64(lastTS))
		}
		db.wal = wlog
		start := time.Now()
		if err := db.recover(); err != nil {
			_ = wlog.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		db.tel.recovery.Observe(elapsed)
		db.tel.rec.Record(telemetry.EvRecovery,
			int64(db.recoveredTxns), int64(db.recoveredLoads), elapsed.Nanoseconds())
	}
	for _, s := range cfg.schemas {
		if db.wal != nil && db.hasTable(s.schema.Table) {
			// Recovered state already holds this table; keep it.
			continue
		}
		if err := db.CreateTable(s.schema, s.rows); err != nil {
			if db.wal != nil {
				_ = db.wal.Close()
			}
			return nil, err
		}
	}
	go db.reclaimer()
	if db.wal != nil && (cfg.autoCkptBytes > 0 || cfg.autoCkptRecords > 0 || cfg.autoCkptInterval > 0) {
		db.ckptKick = make(chan struct{}, 1)
		db.ckptQuit = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.autoCheckpointer(cfg.autoCkptInterval)
		// Recovery seeded the WAL counters with the replayed tail, so a
		// tail past a threshold is checkpointed away now instead of
		// being re-replayed by every subsequent Open; smaller tails fall
		// to the interval timer.
		db.kickAutoCkpt()
	}
	if cfg.serveAddr != "" || cfg.replicaOf != "" {
		if err := db.initReplication(&cfg); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	if cfg.metricsAddr != "" {
		if err := db.startMetricsServer(cfg.metricsAddr); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) hasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

// onComplete is the oracle's complete hook, called once per committed
// timestamp the watermark crosses (on a replica, once per heartbeat),
// inside the completion critical section — it must stay cheap (atomics
// and a non-blocking send). It drives snapshot refresh and, every
// recentPruneEvery completions, kicks the reclaimer.
func (db *DB) onComplete(ts uint64) {
	db.snaps.noteCommit(ts)
	if p := db.pub; p != nil {
		p.Advance(ts)
	}
	if db.st.completions.Add(1)%recentPruneEvery == 0 {
		select {
		case db.gcKick <- struct{}{}:
		default: // a kick is already pending; passes coalesce
		}
	}
}

// columnAlloc picks how column arrays are backed: strategies that
// require special source regions (rewiring needs shared main-memory
// file mappings) allocate through the strategy, everything else through
// private anonymous memory. Either way pages are pre-faulted, as a
// bulk-loaded column's would be.
func columnAlloc(proc *vmem.Process, strat snapshot.Strategy) storage.ColumnAlloc {
	ra, ok := strat.(snapshot.RegionAllocator)
	if !ok {
		return storage.DefaultColumnAlloc(proc)
	}
	return func(name string, rows int) (storage.WordArray, error) {
		reg, _, err := ra.NewRegion(name, storage.ColumnBytes(proc, rows))
		if err != nil {
			return storage.WordArray{}, err
		}
		w := storage.ViewWordArray(proc, reg.Addr, rows)
		w.PreFault()
		return w, nil
	}
}

// CreateTable allocates a table with the given schema and initial
// visible row count. All pages are mapped and pre-faulted immediately;
// the table grows chunk-wise as Insert passes its capacity.
func (db *DB) CreateTable(schema Schema, rows int) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	return db.createTable(schema, rows, true)
}

// createTable is CreateTable without the replica write guard: the
// stream applier creates tables the primary's schema records describe
// (logDDL false — the raw record was already appended by applySchema,
// byte-identical to the primary's).
func (db *DB) createTable(schema Schema, rows int, logDDL bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.tables[schema.Table]; dup {
		return fmt.Errorf("%w: %q", ErrTableExists, schema.Table)
	}
	st, err := storage.NewTable(db.proc, schema, rows, db.alloc)
	if err != nil {
		return err
	}
	t := &table{idx: len(db.tabList), st: st, next: rows}
	t.visLogInit()
	for i, def := range schema.Columns {
		c := &column{
			id:    mvcc.ColumnID{Table: t.idx, Col: i},
			def:   def,
			tab:   t,
			data:  st.Data(i),
			wts:   st.WTS(i),
			chain: mvcc.NewChainStore(),
			dict:  st.Dict(),
		}
		metas := []*mvcc.BlockMeta{mvcc.NewBlockMeta(st.ChunkRows())}
		c.metas.Store(&metas)
		t.cols = append(t.cols, c)
	}
	for _, c := range t.cols {
		if c.def.Index != NoIndex {
			if db.recovering {
				// Placeholder: recovery rebuilds contents from the
				// recovered column + visibility arrays once replay is done.
				c.idx.Store(index.New(c.def.Index, 0))
			} else {
				// Build over the initial rows (visible from time zero with
				// the zero fill). minTS 0: a brand-new table has no version
				// chains, so any read timestamp is servable.
				c.idx.Store(buildColumnIndex(c, c.def.Index, 0))
			}
		}
	}
	db.tables[schema.Table] = t
	db.tabList = append(db.tabList, t)
	if db.wal != nil && !db.recovering && logDDL {
		// Logged under db.mu so schema-log order always matches table
		// index order, which recovery relies on to rebuild ColumnIDs.
		if err := db.wal.AppendTable(tableRecord(schema, rows)); err != nil {
			return err
		}
	}
	return nil
}

// Begin starts a transaction of the given class. OLTP transactions read
// at the newest completed commit and may write; OLAP transactions pin
// the current snapshot generation and are read-only.
func (db *DB) Begin(class TxnClass) (*Txn, error) {
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	id := db.txnIDs.Add(1)
	switch class {
	case OLAP:
		// Read side of the re-bootstrap gate, held until the pin drops
		// (Commit/Abort). Blocks only while a replica re-bootstraps.
		if err := db.pinGate(); err != nil {
			return nil, err
		}
		db.st.olapBegun.Add(1)
		gen := db.snaps.acquire()
		db.tel.rec.Record(telemetry.EvTxnBegin, int64(id), 1, int64(gen.ts))
		return &Txn{db: db, id: id, class: OLAP, gen: gen}, nil
	default:
		if err := db.replicaWriteGuard(); err != nil {
			return nil, err
		}
		db.st.oltpBegun.Add(1)
		// Sample-register-verify: GC computes its floor from the active
		// set, so the begin timestamp must be registered before any
		// commit can complete past it. If one did complete between the
		// sample and the registration, re-sample.
		var begin uint64
		for {
			begin = db.oracle.Begin()
			db.activ.Register(id, begin)
			if db.oracle.Begin() == begin {
				break
			}
			db.activ.Unregister(id)
		}
		// No begin event for OLTP: these transactions run for
		// microseconds, so a separate begin record would double recorder
		// traffic on the commit hot path for no diagnostic window — the
		// begin timestamp rides on the commit/abort event's C payload
		// instead. OLAP begins (snapshot pins) are recorded above.
		return &Txn{db: db, id: id, class: OLTP, state: mvcc.NewTxnState(id, begin, mvcc.OLTP)}, nil
	}
}

// pinGate takes the read side of olapGate for a snapshot-generation pin;
// the caller releases it when the pin drops.
func (db *DB) pinGate() error {
	db.olapGate.RLock()
	if db.halfBootstrapped.Load() {
		db.olapGate.RUnlock()
		return errHalfBootstrapped
	}
	return nil
}

// lookup resolves a (table, column) name pair.
func (db *DB) lookup(tab, col string) (*column, error) {
	t, err := db.lookupTable(tab)
	if err != nil {
		return nil, err
	}
	i := t.st.Schema().ColumnIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q.%q", ErrNoSuchColumn, tab, col)
	}
	return t.cols[i], nil
}

// lookupTable resolves a table name.
func (db *DB) lookupTable(tab string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[tab]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, tab)
	}
	return t, nil
}

// tableByIdx resolves a table index back to its table.
func (db *DB) tableByIdx(idx int) *table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tabList[idx]
}

// chunkRowsOf returns the chunk granularity of the table at idx.
func (db *DB) chunkRowsOf(idx int) int { return db.tableByIdx(idx).st.ChunkRows() }

// columnByID resolves a ColumnID back to its column.
func (db *DB) columnByID(id mvcc.ColumnID) *column {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tabList[id.Table].cols[id.Col]
}

// Load bulk-loads vals into a column starting at row 0, outside any
// transaction: write timestamps stay zero, so the values behave as the
// state at time zero. It must not run concurrently with transactions;
// it exists so benchmarks can populate large columns without paying the
// versioning machinery. With durability enabled the load is redo-logged
// as chunked bulk-load records through the column's shard WAL before it
// is applied, so it survives a crash without waiting for a checkpoint;
// because loads are time-zero state, any committed write to the same
// row wins over the load at recovery.
func (db *DB) Load(tab, col string, vals []int64) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	if len(vals) > c.tab.st.InitialRows() {
		// Bounded by the born-at-time-zero rows, not the chunk-rounded
		// capacity: values loaded into unborn slots would silently never
		// become visible.
		return fmt.Errorf("%w: %d values into %s.%s (%d rows)", ErrRowRange, len(vals), tab, col, c.tab.st.InitialRows())
	}
	return db.loadColumn(c, vals, nil)
}

// LoadStrings bulk-loads a VARCHAR column, encoding through the table
// dictionary. Same caveats and durability behaviour as Load; the WAL
// records carry the decoded strings, re-encoded through the recovered
// dictionary at replay exactly like VARCHAR commit records.
func (db *DB) LoadStrings(tab, col string, vals []string) error {
	if err := db.replicaWriteGuard(); err != nil {
		return err
	}
	c, err := db.lookup(tab, col)
	if err != nil {
		return err
	}
	if c.def.Type != Varchar {
		return fmt.Errorf("%w: %s is %s, want VARCHAR", ErrType, col, c.def.Type)
	}
	if len(vals) > c.tab.st.InitialRows() {
		return fmt.Errorf("%w: %d values into %s.%s (%d rows)", ErrRowRange, len(vals), tab, col, c.tab.st.InitialRows())
	}
	return db.loadColumn(c, nil, vals)
}

// loadColumn applies a bulk load (one of vals/strs is set), WAL-logging
// it first when durable. The checkpoint mutex serialises the whole load
// against checkpoints — manual and scheduled alike — so a checkpoint
// can never capture half an applied load and then truncate away the
// records of the other half.
func (db *DB) loadColumn(c *column, vals []int64, strs []string) error {
	if db.wal != nil {
		db.ckptMu.Lock()
		defer db.ckptMu.Unlock()
		if err := db.logLoad(c, vals, strs); err != nil {
			return err
		}
		defer db.kickAutoCkpt()
	}
	if strs != nil {
		codes := make([]int64, len(strs))
		for i, s := range strs {
			codes[i] = c.dict.Encode(s)
		}
		c.data.Fill(codes)
		c.loadZones(codes)
	} else {
		c.data.Fill(vals)
		c.loadZones(vals)
	}
	db.reindexColumn(c)
	return nil
}

// gcFloor returns the oldest timestamp any state reader may still need:
// the minimum over running OLTP begin timestamps and pinned snapshot
// generation timestamps.
func (db *DB) gcFloor() uint64 {
	floor := db.activ.MinBegin(db.oracle.Completed())
	if s := db.snaps.minTS(floor); s < floor {
		floor = s
	}
	return floor
}

// Close releases the manager's pin on the current snapshot generation,
// stops the reclaimer and the checkpoint scheduler (waiting out any
// pass or checkpoint already started, so neither runs against a closed
// manager or log), syncs and closes the write-ahead log (so
// even under SyncNone a clean shutdown is durable), and marks the
// database closed. Transactions still running keep their pinned
// snapshots alive until they finish.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.mu.Unlock()
	db.stopMetricsServer()
	// Serving tier first: no new sessions or replica feeds, then stop
	// the replica connector (waits out its goroutine), then release any
	// blocked publisher subscribers.
	if db.srv != nil {
		_ = db.srv.Close()
	}
	if db.rep != nil {
		db.rep.stop()
	}
	if db.pub != nil {
		db.pub.Close()
	}
	close(db.gcQuit)
	<-db.gcDone
	if db.ckptQuit != nil {
		close(db.ckptQuit)
		<-db.ckptDone
	}
	db.snaps.close()
	if db.wal != nil {
		return db.wal.Close()
	}
	return nil
}
