package main

import (
	"math/rand"
	"time"

	"ankerdb"
)

// htap is the paper's core claim: one closed-loop OLTP client runs the
// transfer mix while one closed-loop OLAP client scans fresh virtual
// snapshots of the same in-memory table (VMSnap, DefaultCost, a new
// snapshot generation after every commit).
const htapRows = 1 << 20

type htapDB struct {
	db  *ankerdb.DB
	inv *invariant
}

func openHTAP(r *run, opts ...ankerdb.Option) (*htapDB, error) {
	db, err := ankerdb.Open(opts...)
	if err != nil {
		return nil, err
	}
	inv, err := createAcct(db, acctTable, r.cfg.seed, r.rows(htapRows))
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return &htapDB{db, inv}, nil
}

// reportClient returns the OLAP client running report back to back.
func (h *htapDB) reportClient(seed int64, morsels int, tr *tracer) loadClient {
	g := newRand(seed, saltOLAP)
	vals := acctTable.vals
	return loadClient{step: func() error { return report(h.db, h.inv, g, vals, morsels, tr) }}
}

// report is the OLAP transaction on acct: over one snapshot, a
// full-column sum with the row count, checked against the load-time
// constants, and a filtered sum; morsels workers each (0 = GOMAXPROCS).
func report(db *ankerdb.DB, inv *invariant, g *rand.Rand, vals []string, morsels int, tr *tracer) error {
	cA, cB, cC := vals[g.Intn(len(vals))], vals[g.Intn(len(vals))], vals[g.Intn(len(vals))]
	tr.txnBegin("olap.txn")
	defer tr.end()
	tr.begin("olap.begin")
	tx, err := db.Begin(ankerdb.OLAP)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("query.scan_agg")
	res, err := tx.Query(inv.table).Aggregate(ankerdb.SumOf(cA), ankerdb.CountRows()).Morsels(morsels).Run()
	tr.end()
	if err == nil {
		err = inv.check(cA, res.At(0, 0), res.At(0, 1))
	}
	if err == nil {
		tr.begin("query.filter_agg")
		_, err = tx.Query(inv.table).Where(ankerdb.Lt(cB, 1500)).
			Aggregate(ankerdb.SumOf(cC), ankerdb.CountRows()).Morsels(morsels).Run()
		tr.end()
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	tr.begin("olap.release")
	err = tx.Commit()
	tr.end()
	return err
}

// htapWindow runs one recorded window of both clients on h and
// returns the OLTP and OLAP statistics.
func (r *run) htapWindow(h *htapDB, length time.Duration, salt int64, trs [2]*tracer) (window, *loadStats, *loadStats) {
	g := newOpGen(r.cfg.seed, saltWriter+salt, 0, r.rows(htapRows), len(acctTable.vals), 10)
	w, st := runWindow(length, 10,
		transferClient(h.db, acctTable, g, false, trs[0], &embeddedSpans),
		h.reportClient(r.cfg.seed+salt, 1, trs[1]))
	for _, s := range st {
		r.account(s.attempted, s.failed, s.err)
	}
	return w, st[0], st[1]
}

func runHTAP(r *run) error {
	var h *htapDB
	closeDB, err := r.setups(2*time.Second, func() (func() error, error) {
		var err error
		if h, err = openHTAP(r); err != nil {
			return nil, err
		}
		return h.db.Close, nil
	})
	if err != nil {
		return err
	}
	defer func() { _ = closeDB() }()

	if !r.cfg.trace {
		return r.phase("window", windowBudget(r.window()), func() error {
			w, oltp, olap := r.htapWindow(h, r.window(), 0, [2]*tracer{})
			r.probe()
			r.emitOLTP(w, oltp)
			r.emitOLAP(w, olap)
			r.check("the table has the load-time sums and row count", verifyAcct(h.db, acctTable, h.inv))
			return nil
		})
	}

	// Traced pass: an untraced reference window, the traced window,
	// the same window under ZeroCost, then the micro-kernels.
	third := r.window() / 3
	var refOLTP, refOLAP *loadStats
	var refW window
	if err := r.phase("reference-window", windowBudget(third), func() error {
		refW, refOLTP, refOLAP = r.htapWindow(h, third, 0, [2]*tracer{})
		r.noteOLAPTail(refOLAP)
		return nil
	}); err != nil {
		return err
	}
	if err := r.phase("traced-window", windowBudget(third), func() error {
		trs := [2]*tracer{r.tracer(0, 128), r.tracer(1, 1)}
		before := h.db.Stats()
		w, oltp, _ := r.htapWindow(h, third, 1, trs)
		after := h.db.Stats()
		r.probe()
		r.emitCommitLayers(before, after)
		r.emitOLAPLayers(before, after)
		r.emit("trace.overhead_share", 1-oltp.rate(w)/refOLTP.rate(refW), oltp.samples())
		r.keep(trs[0], trs[1])
		return nil
	}); err != nil {
		return err
	}
	if err := r.phase("zerocost-window", windowBudget(third)+2*time.Second, func() error {
		z, err := openHTAP(r, ankerdb.WithCostModel(ankerdb.ZeroCost))
		if err != nil {
			return err
		}
		defer z.db.Close()
		_, oltp, olap := r.htapWindow(z, third, 2, [2]*tracer{})
		share := func(def, zero *loadStats) float64 {
			d := def.quantile(0.5)
			return (d - zero.quantile(0.5)) / d
		}
		r.emit("cost.sim_kernel_share_oltp", share(refOLTP, oltp), oltp.samples())
		r.emit("cost.sim_kernel_share_olap", share(refOLAP, olap), olap.samples())
		return nil
	}); err != nil {
		return err
	}
	self := r.selfTimes()
	r.emitTxnSpans(self)
	r.emitSpan("olap.begin_us", "olap.begin", self, 1e3)
	r.emitSpan("olap.release_us", "olap.release", self, 1e3)
	r.emitSpan("query.scan_agg_ms", "query.scan_agg", self, 1e6)
	r.emitSpan("query.filter_agg_ms", "query.filter_agg", self, 1e6)
	return r.phase("kernels", 12*time.Second, func() error {
		if err := r.kernelOLTPAllocs(h.db, r.rows(htapRows)); err != nil {
			return err
		}
		r.kernelMVCC()
		r.kernelStorageScan()
		if err := r.kernelSnapshots(); err != nil {
			return err
		}
		return r.kernelVMem()
	})
}
