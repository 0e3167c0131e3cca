package ankerdb

import (
	"time"

	"ankerdb/internal/storage"
	"ankerdb/internal/telemetry"
)

// Reclamation: one goroutine per DB — primary, replica and promoted
// alike — collects what no reader can see any more, behind the GC
// floor. The commit path and the replica's applier only count: the
// completion hook kicks the reclaimer (onComplete), and the install
// kernels count each table's pending row work (table.pending).

// reclaimer, the only caller of reclaim, runs until Close.
func (db *DB) reclaimer() {
	defer close(db.gcDone)
	for {
		select {
		case <-db.gcQuit:
			return
		case <-db.gcKick:
			db.reclaim(false)
		case req := <-db.gcReq:
			req.removed <- db.reclaim(req.full)
		}
	}
}

// gcReq asks for a pass and receives its removed count.
type gcReq struct {
	full    bool
	removed chan int64
}

// requestPass has the reclaimer run a pass and waits for it; after
// Close it returns 0 at once.
func (db *DB) requestPass(full bool) int64 {
	req := gcReq{full: full, removed: make(chan int64, 1)}
	select {
	case db.gcReq <- req:
		return <-req.removed
	case <-db.gcDone:
		return 0
	}
}

// Vacuum runs a full reclamation pass now, whatever falls due, and
// returns the number of version nodes removed. The reclaimer does the
// same work in the background, so no state needs Vacuum to stay
// bounded. After Close it returns 0 at once.
func (db *DB) Vacuum() int64 { return db.requestPass(true) }

// assistGrowth runs before an insert into t: when it would map a new
// chunk while t has due row work, it waits for a pass first, so churn
// refills reclaimed slots however far the reclaimer lags.
func (db *DB) assistGrowth(t *table) {
	t.amu.Lock()
	grow := len(t.free) == 0 && t.next >= t.st.Capacity()
	t.amu.Unlock()
	if grow && t.reclaimDue(db.gcFloor()) {
		db.requestPass(false)
	}
}

// installedCommits counts the commit records installed here: the
// completions, plus a replica's applied stream records (its heartbeats
// complete too, so its chain pass comes up to twice as often).
func (db *DB) installedCommits() uint64 {
	n := db.st.completions.Load()
	if r := db.rep; r != nil {
		n += r.frames.Load()
	}
	return n
}

// reclaim is the one reclamation pass (full: no thresholds). It prunes
// the recent lists; every vacuumEvery installed commits the chains of
// every shard, one shard lock at a time; and due tables under every
// shard lock. The floor only rises, so each step samples it afresh
// once it holds its locks. It returns the version nodes removed.
func (db *DB) reclaim(full bool) int64 {
	// The OLAP gate keeps the pass off arrays a replica re-bootstrap
	// overwrites, torn or running. TryRLock: a Vacuum caller may hold a
	// pin itself, and a waiting bootstrap would block a new reader.
	if !db.olapGate.TryRLock() {
		return 0
	}
	defer db.olapGate.RUnlock()
	if db.halfBootstrapped.Load() {
		return 0
	}
	floor := db.gcFloor()
	for _, s := range db.shards {
		s.recent.PruneBelow(floor)
	}
	epoch := db.installedCommits() / vacuumEvery
	chains := full || epoch != db.chainEpoch
	var tabs []*table
	db.mu.RLock()
	for _, t := range db.tabList {
		if full || t.reclaimDue(floor) {
			tabs = append(tabs, t)
		}
	}
	db.mu.RUnlock()
	if !chains && len(tabs) == 0 {
		return 0
	}
	start := time.Now()
	var removed int64
	if chains {
		db.chainEpoch = epoch
		for _, s := range db.shards {
			s.mu.Lock()
			removed += db.vacuumShardChains(s, db.gcFloor())
			s.mu.Unlock()
		}
	}
	if len(tabs) > 0 {
		db.lockAllShards()
		floor = db.gcFloor()
		for _, t := range tabs {
			db.reclaimTable(t, floor)
		}
		db.unlockAllShards()
	}
	db.st.vacuums.Add(1)
	db.st.versionsGCed.Add(removed)
	elapsed := time.Since(start)
	db.tel.vacuum.Observe(elapsed)
	db.tel.rec.Record(telemetry.EvVacuum, removed, 0, elapsed.Nanoseconds())
	return removed
}

// vacuumShardChains prunes the version chains of every column routed to
// shard s below floor. The caller holds s's commit lock, which excludes
// concurrent materialisation into those columns (pruning between a
// commit's chain push and its timestamp store could reap a version a
// concurrent reader still needs).
func (db *DB) vacuumShardChains(s *commitShard, floor uint64) int64 {
	var removed int64
	for _, t := range db.liveTables() {
		for _, c := range t.cols {
			if db.shards[db.shardOf(c.id)] != s {
				continue
			}
			removed += c.chain.Prune(floor, func(row int) uint64 { return c.wts.GetU(row) })
		}
	}
	return removed
}

// reclaimDue reports whether t's row work is due: a dropped table's
// once the floor passes its stamp (written before dropped is set), a
// live one's at max(live rows, one chunk) units, which pays for the
// O(capacity) steps.
func (t *table) reclaimDue(floor uint64) bool {
	n := t.pending.Load()
	switch {
	case n == 0:
		return false
	case t.dropped.Load():
		return t.dropTS < floor
	}
	return n >= max(t.visCountAt(floor), int64(t.st.ChunkRows()))
}

// reclaimTable reclaims t's dead rows below floor, compacts its
// visibility log, recomputes its zones (widen-only installs leave them
// too wide, never wrong) and prunes its dead index entries — before a
// reclaimed slot is reused, so a re-inserted row's entries never meet
// its dead incarnation's. A dropped table frees instead, once the floor
// lies strictly ABOVE the drop stamp (a generation pinned exactly at it
// may still capture). The caller holds every shard commit lock.
func (db *DB) reclaimTable(t *table, floor uint64) {
	if t.dropped.Load() {
		if t.dropTS < floor {
			db.freeDropped(t)
		}
		return
	}
	t.pending.Store(0)
	db.reclaimRows(t, floor)
	t.visLogCompact(floor)
	for _, c := range t.cols {
		c.recomputeZones(floor)
		if ix := c.idx.Load(); ix != nil {
			ix.Prune(floor)
		}
	}
}

// reclaimRows moves t's rows dead at or below floor to its free list,
// marking the slot unborn (birth NeverTS) so no later reader can
// resurrect the dead incarnation. The caller holds every shard commit
// lock (no concurrent birth/death installs) and floor is the GC floor
// (no running transaction or pinned generation reads below it), so
// every current and future reader already sees these rows as dead.
// The death timestamp is left in place: recovery uses the
// (birth=NeverTS, death!=0) pair persisted by a later checkpoint to
// rebuild the free list. An unpromoted replica never allocates — its
// allocator is rebuilt from those pairs by Promote — so it only marks.
func (db *DB) reclaimRows(t *table, floor uint64) {
	if !t.visMutated.Load() {
		return
	}
	keep := db.replicaWriteGuard() == nil
	birth, death := t.st.Birth(), t.st.Death()
	t.amu.Lock()
	for row := 0; row < t.next; row++ {
		b := birth.GetU(row)
		if b == storage.NeverTS {
			continue // unborn, reserved, or already reclaimed
		}
		if d := death.GetU(row); d != 0 && d <= floor {
			birth.SetU(row, storage.NeverTS)
			if keep {
				t.free = append(t.free, row)
			}
			db.st.rowsReclaimed.Add(1)
		}
	}
	t.amu.Unlock()
}
