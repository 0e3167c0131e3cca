package main

import (
	"fmt"
	"math/rand"
	"time"

	"ankerdb"
)

// olap-query uses the OLAP layers differently from htap: one OLAP
// client with default (parallel) morsels runs a zone-map range query,
// a full scan, a join with group-by and an index point query over a
// table that barely changes, while an open-loop writer commits 500
// transfers a second. The commit pipeline is nearly idle here, so a
// scan optimisation that taxes writes shows in this workload's
// oltp_txn_p50_us.
const (
	factRows     = 1 << 21
	factPerKey   = 32 // rows sharing one value of the indexed column h
	dimRows      = 256
	dimRegions   = 8
	olapWriteHz  = 500
	zoneFraction = 50 // the range query covers 1/50 of the rows
)

var factTable = acct{table: "fact", vals: []string{"v"}}

type factDB struct {
	db   *ankerdb.DB
	inv  *invariant
	rows int
}

func openFact(r *run) (*factDB, error) {
	rows := r.rows(factRows)
	db, err := ankerdb.Open()
	if err != nil {
		return nil, err
	}
	f := &factDB{db: db, inv: newInvariant("fact", rows), rows: rows}
	fact := ankerdb.NewSchema("fact").Int64("k").Int64("g").Int64("v").Int64("h").Indexed(ankerdb.Hash).Build()
	dim := ankerdb.NewSchema("dim").Int64("id").Int64("region").Build()
	k, g, h := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range k {
		k[i], g[i], h[i] = int64(i), int64(i%dimRows), int64(i%(rows/factPerKey))
	}
	v := loadValues(r.cfg.seed, 0, rows)
	f.inv.note("v", v)
	id, region := make([]int64, dimRows), make([]int64, dimRows)
	for i := range id {
		id[i], region[i] = int64(i), int64(i%dimRegions)
	}
	load := func(tab, col string, vals []int64) {
		if err == nil {
			err = db.Load(tab, col, vals)
		}
	}
	if err = db.CreateTable(fact, rows); err == nil {
		err = db.CreateTable(dim, dimRows)
	}
	load("fact", "k", k)
	load("fact", "g", g)
	load("fact", "v", v)
	load("fact", "h", h)
	load("dim", "id", id)
	load("dim", "region", region)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return f, nil
}

// sumColumn adds up result column col over all result rows.
func sumColumn(res *ankerdb.QueryResult, col int) int64 {
	var s int64
	for i := 0; i < res.Len(); i++ {
		s += res.At(i, col)
	}
	return s
}

// report4 is the OLAP transaction of olap-query: four queries in a
// fixed order over one snapshot, each checked against a constant.
func (f *factDB) report4(g *rand.Rand, tr *tracer) error {
	tr.txnBegin("olap.txn")
	defer tr.end()
	tr.begin("olap.begin")
	tx, err := f.db.Begin(ankerdb.OLAP)
	tr.end()
	if err != nil {
		return err
	}
	err = f.queries(tx, g, tr)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	tr.begin("olap.release")
	err = tx.Commit()
	tr.end()
	return err
}

func (f *factDB) queries(tx *ankerdb.Txn, g *rand.Rand, tr *tracer) error {
	span := f.rows / zoneFraction
	lo := int64(g.Intn(f.rows - span))
	tr.begin("query.zone_range")
	res, err := tx.Query("fact").Where(ankerdb.Between("k", lo, lo+int64(span)-1)).
		GroupBy("g").Aggregate(ankerdb.SumOf("v"), ankerdb.CountRows()).Run()
	tr.end()
	if err != nil {
		return err
	}
	if n := sumColumn(res, 2); n != int64(span) {
		return fmt.Errorf("zone-range query counted %d rows, want %d", n, span)
	}

	tr.begin("query.scan_agg")
	res, err = tx.Query("fact").Aggregate(ankerdb.SumOf("v"), ankerdb.CountRows()).Run()
	tr.end()
	if err != nil {
		return err
	}
	if err := f.inv.check("v", res.At(0, 0), res.At(0, 1)); err != nil {
		return err
	}

	tr.begin("query.join_group")
	res, err = tx.Query("fact").Join("dim", "g", "id").GroupBy("region").Aggregate(ankerdb.SumOf("v")).Run()
	tr.end()
	if err != nil {
		return err
	}
	if res.Len() != dimRegions {
		return fmt.Errorf("join produced %d regions, want %d", res.Len(), dimRegions)
	}
	if err := f.inv.check("v", sumColumn(res, 1), -1); err != nil {
		return fmt.Errorf("join group total: %w", err)
	}

	key := int64(g.Intn(f.rows / factPerKey))
	tr.begin("query.index_eq")
	res, err = tx.Query("fact").Where(ankerdb.Eq("h", key)).Aggregate(ankerdb.CountRows()).Run()
	tr.end()
	if err != nil {
		return err
	}
	if n := res.At(0, 0); n != factPerKey {
		return fmt.Errorf("index query for h = %d counted %d rows, want %d", key, n, factPerKey)
	}
	return nil
}

// window runs the open-loop writer and the OLAP client.
func (f *factDB) window(r *run, length time.Duration, salt int64, trs [2]*tracer) (window, *loadStats, *loadStats) {
	og := newOpGen(r.cfg.seed, saltWriter+salt, 0, f.rows, 1, 10)
	qg := newRand(r.cfg.seed+salt, saltOLAP)
	writer := transferClient(f.db, factTable, og, false, trs[0], &embeddedSpans)
	writer.rate = olapWriteHz
	w, st := runWindow(length, 10, writer,
		loadClient{step: func() error { return f.report4(qg, trs[1]) }})
	for _, s := range st {
		r.account(s.attempted, s.failed, s.err)
	}
	return w, st[0], st[1]
}

func runOLAPQuery(r *run) error {
	var f *factDB
	closeDB, err := r.setups(5*time.Second, func() (func() error, error) {
		var err error
		if f, err = openFact(r); err != nil {
			return nil, err
		}
		return f.db.Close, nil
	})
	if err != nil {
		return err
	}
	defer func() { _ = closeDB() }()

	lateness := func(st *loadStats) {
		r.late["p50"] = st.late.quantile(0.50) / 1e3
		r.late["p99"] = st.late.quantile(0.99) / 1e3
	}
	if !r.cfg.trace {
		return r.phase("window", windowBudget(r.window()), func() error {
			w, oltp, olap := f.window(r, r.window(), 0, [2]*tracer{})
			r.probe()
			lateness(oltp)
			r.emitOLTP(w, oltp)
			r.emitOLAP(w, olap)
			return nil
		})
	}

	half := r.window() / 2
	if err := r.phase("traced-window", 2*windowBudget(half), func() error {
		refW, _, ref := f.window(r, half, 0, [2]*tracer{})
		r.noteOLAPTail(ref)
		trs := [2]*tracer{r.tracer(0, 1), r.tracer(1, 1)}
		before := f.db.Stats()
		w, oltp, olap := f.window(r, half, 1, trs)
		after := f.db.Stats()
		r.probe()
		lateness(oltp)
		r.emitCommitLayers(before, after)
		r.emitOLAPLayers(before, after)
		// The writer is open loop, so tracing cannot slow its rate;
		// the closed-loop OLAP client shows the overhead here.
		r.emit("trace.overhead_share", 1-olap.rate(w)/ref.rate(refW), olap.samples())
		r.keep(trs[0], trs[1])
		return nil
	}); err != nil {
		return err
	}
	self := r.selfTimes()
	r.emitTxnSpans(self)
	r.emitSpan("olap.begin_us", "olap.begin", self, 1e3)
	r.emitSpan("olap.release_us", "olap.release", self, 1e3)
	r.emitSpan("query.zone_range_ms", "query.zone_range", self, 1e6)
	r.emitSpan("query.scan_agg_ms", "query.scan_agg", self, 1e6)
	r.emitSpan("query.join_group_ms", "query.join_group", self, 1e6)
	r.emitSpan("query.index_eq_us", "query.index_eq", self, 1e3)
	return r.phase("kernels", 12*time.Second, func() error {
		qg := newRand(r.cfg.seed, saltOLAP+7)
		n := r.count(32)
		_, bytes, err := allocsPer(n, func() error { return f.report4(qg, nil) })
		r.account(int64(n), 0, err)
		if err != nil {
			return err
		}
		r.emit("runtime.alloc_bytes_per_olap_txn", bytes, int64(n))
		r.kernelStorageScan()
		r.kernelIndex()
		return nil
	})
}
