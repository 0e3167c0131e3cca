package main

import (
	"fmt"
	"os"
	"time"

	"ankerdb"
)

// oltp-durable is what durability costs a writer and how long a
// restart takes: two closed-loop writers run the transfer mix on
// disjoint halves of a WAL-backed table (SyncNone: with real fsync the
// sandbox's virtual disk is all that is measured), then a count-bound
// phase of inserts, deletes, a vacuum and transfers is closed and
// recovered three times, and the recovered database is audited by one
// OLAP client.
const (
	durableRows      = 1 << 19
	durableOrders    = 30000 // count-bound order transactions
	durableTransfers = 70000 // count-bound transfer-mix transactions
	durableHeld      = 4096  // inserted rows a writer holds before it deletes its oldest
	durableRecovers  = 3
)

func durableOpts(dir string) []ankerdb.Option {
	return []ankerdb.Option{ankerdb.WithDurability(dir), ankerdb.WithSyncPolicy(ankerdb.SyncNone)}
}

// runOrder inserts one all-zero row, runs one transfer and, once the
// writer holds durableHeld inserted rows, deletes its oldest — all in
// one transaction. Inserted rows are never transfer targets, so the
// column sums hold.
func runOrder(db *ankerdb.DB, t acct, o op, held []int) ([]int, error) {
	tx, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		return held, err
	}
	row, err := tx.Insert(t.table, nil)
	if err == nil {
		err = transferBody(tx, t, o, nil, &embeddedSpans)
	}
	if err == nil && len(held) >= durableHeld {
		err = tx.Delete(t.table, held[0])
	}
	if err != nil {
		_ = tx.Abort()
		return held, err
	}
	if err := tx.Commit(); err != nil {
		return held, err
	}
	if len(held) >= durableHeld {
		held = held[1:]
	}
	return append(held, row), nil
}

func runDurable(r *run) error {
	rows := r.rows(durableRows)
	var db *ankerdb.DB
	var inv *invariant
	var dir string
	_, err := r.setups(3*time.Second, func() (func() error, error) {
		if dir != "" {
			_ = os.RemoveAll(dir) // the previous set-up's database, closed by now
		}
		dir = r.dir("durable")
		d, err := ankerdb.Open(durableOpts(dir)...)
		if err != nil {
			return nil, err
		}
		if inv, err = createAcct(d, acctTable, r.cfg.seed, rows); err == nil {
			err = r.span("durability.checkpoint", d.Checkpoint)
		}
		if err != nil {
			_ = d.Close()
			return nil, err
		}
		db = d
		return d.Close, nil
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = db.Close()
		}
	}()

	// Two writers on disjoint halves: a conflict is a failure.
	writers := func(length time.Duration, salt int64, trs [2]*tracer) (window, *loadStats) {
		var cs [2]loadClient
		for i := range cs {
			g := newOpGen(r.cfg.seed, saltWriter+salt+int64(i), i*rows/2, rows/2, len(acctTable.vals), 10)
			cs[i] = transferClient(db, acctTable, g, true, trs[i], &embeddedSpans)
		}
		w, st := runWindow(length, 10, cs[0], cs[1])
		st[0].merge(st[1])
		r.account(st[0].attempted, st[0].failed, st[0].err)
		return w, st[0]
	}

	if !r.cfg.trace {
		if err := r.phase("window", windowBudget(r.window()), func() error {
			w, oltp := writers(r.window(), 0, [2]*tracer{})
			r.probe()
			r.emitOLTP(w, oltp)
			return nil
		}); err != nil {
			return err
		}
	} else {
		third := r.window() / 3
		if err := r.phase("traced-window", 2*windowBudget(third), func() error {
			refW, ref := writers(third, 0, [2]*tracer{})
			trs := [2]*tracer{r.tracer(0, 64), r.tracer(1, 64)}
			before := db.Stats()
			w, oltp := writers(third, 2, trs)
			after := db.Stats()
			r.probe()
			r.emitCommitLayers(before, after)
			r.emit("trace.overhead_share", 1-oltp.rate(w)/ref.rate(refW), oltp.samples())
			r.keep(trs[0], trs[1])
			return nil
		}); err != nil {
			return err
		}
		if err := r.phase("kernels", 12*time.Second, func() error {
			if err := r.kernelOLTPAllocs(db, rows); err != nil {
				return err
			}
			if err := r.kernelWAL(); err != nil {
				return err
			}
			return r.fsyncSegment()
		}); err != nil {
			return err
		}
	}

	// Count-bound phase, single writer, driven by a fresh generator
	// seeded from -seed (the window's generators' positions depend on
	// how fast the window ran): the bytes logged, the rows born and the
	// work replayed are the same in every run.
	var walBytes, walRecords uint64
	if err := r.phase("count-bound", 10*time.Second, func() error {
		if err := r.span("durability.checkpoint", db.Checkpoint); err != nil {
			return err
		}
		g := newOpGen(r.cfg.seed, saltOrder, 0, rows, len(acctTable.vals), 10)
		before := db.Stats()
		var held []int
		rot := &rotator{s: db}
		orders, transfers := r.count(durableOrders), r.count(durableTransfers)
		for i := 0; i < orders; i++ {
			o := g.next()
			o.kind = opTransfer
			var err error
			if held, err = runOrder(db, acctTable, o, held); err == nil {
				err = rot.tick()
			}
			if err != nil {
				r.account(int64(i+1), 1, err)
				return err
			}
		}
		inv.rows = int64(rows + len(held))
		if err := r.span("root.vacuum", func() error { db.Vacuum(); return nil }); err != nil {
			return err
		}
		for i := 0; i < transfers; i++ {
			err := runOp(db, acctTable, g.next(), nil, &embeddedSpans)
			if err == nil {
				err = rot.tick()
			}
			if err != nil {
				r.account(int64(orders+i+1), 1, err)
				return err
			}
		}
		r.account(int64(orders+transfers), 0, nil)
		after := db.Stats()
		walBytes, walRecords = after.WALBytes-before.WALBytes, after.WALRecords-before.WALRecords
		closed = true
		return r.span("durability.close", db.Close)
	}); err != nil {
		return err
	}

	// Restart: checkpoint plus a fixed tail, three times. The last
	// recovered database stays open for the audit.
	var opens []float64
	var reports []ankerdb.RecoveryReport
	var last ankerdb.Stats
	if err := r.phase("recovery", 8*time.Second, func() error {
		for i := 0; i < durableRecovers; i++ {
			t0 := time.Now()
			d, err := ankerdb.Open(durableOpts(dir)...)
			if err != nil {
				return err
			}
			opens = append(opens, time.Since(t0).Seconds())
			db, closed = d, false
			reports = append(reports, d.RecoveryReport())
			last = d.Stats()
			r.check(fmt.Sprintf("recovered database %d has the load-time sums and row count", i+1), verifyAcct(d, acctTable, inv))
			if i < durableRecovers-1 {
				closed = true
				if err := d.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var same, tail error
	for _, rep := range reports[1:] {
		if rep != reports[0] {
			same = fmt.Errorf("recovery reports differ: %+v vs %+v", reports[0], rep)
		}
	}
	if reports[0].ReplayedTxns != walRecords {
		tail = fmt.Errorf("replayed %d records, the count-bound phase logged %d", reports[0].ReplayedTxns, walRecords)
	}
	r.check("the recovery reports are identical", same)
	r.check("recovery replays exactly the count-bound tail", tail)

	r.note("wal_bytes_per_txn", ratio(walBytes, walRecords), int64(walRecords))
	r.note("recovery_s", median(opens), int64(len(opens)))
	r.slices["recovery_s"] = opens

	// Audit: one OLAP client on the recovered database, nothing else
	// running, default morsels.
	audit := &htapDB{db, inv}
	if err := r.phase("audit-window", windowBudget(r.window()/4), func() error {
		w, st := runWindow(r.window()/4, 5, audit.reportClient(r.cfg.seed, 0, nil))
		r.account(st[0].attempted, st[0].failed, st[0].err)
		if r.cfg.trace {
			r.noteOLAPTail(st[0])
		} else {
			r.emitOLAP(w, st[0])
		}
		return nil
	}); err != nil || !r.cfg.trace {
		return err
	}
	self := r.selfTimes()
	r.emitTxnSpans(self)
	r.emitSpan("durability.checkpoint_s", "durability.checkpoint", self, 1e9)
	r.emitSpan("durability.close_s", "durability.close", self, 1e9)
	r.emitSpan("root.vacuum_s", "root.vacuum", self, 1e9)
	r.emit("durability.replay_mean_s", last.RecoveryReplayHist.Mean().Seconds(), int64(last.RecoveryReplayHist.Count))
	r.emit("durability.recovery_peak_bytes", float64(last.RecoveryPeakBytes), 1)
	return nil
}

// fsyncSegment is the only place real fsync is timed: two writers on
// a small SyncGroupOnly database for a third of the window. The
// numbers describe the sandbox's disk and are informational.
func (r *run) fsyncSegment() error {
	rows := r.rows(1 << 16)
	db, err := ankerdb.Open(ankerdb.WithDurability(r.dir("fsync")), ankerdb.WithSyncPolicy(ankerdb.SyncGroupOnly))
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := createAcct(db, acctTable, r.cfg.seed, rows); err != nil {
		return err
	}
	var cs [2]loadClient
	for i := range cs {
		g := newOpGen(r.cfg.seed, saltWriter+10+int64(i), i*rows/2, rows/2, len(acctTable.vals), 10)
		cs[i] = transferClient(db, acctTable, g, true, nil, &embeddedSpans)
	}
	before := db.Stats()
	_, st := runWindow(r.window()/5, 1, cs[0], cs[1])
	after := db.Stats()
	st[0].merge(st[1])
	r.account(st[0].attempted, st[0].failed, st[0].err)
	commits := after.Commits - before.Commits
	r.emit("wal.fsyncs_per_txn", ratio(after.FsyncCount-before.FsyncCount, commits), int64(commits))
	mean, n := histMean(before.CommitFsyncHist, after.CommitFsyncHist)
	r.emit("wal.fsync_mean_us", mean/1e3, n)
	return nil
}
