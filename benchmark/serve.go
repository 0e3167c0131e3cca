package main

import (
	"errors"
	"fmt"
	"time"

	"ankerdb"
)

// serve-replica is the networked tier in steady state: a durable
// serving primary (SyncNone) streams its WAL to a serving read
// replica; one client runs the transfer mix through a remote session
// on the primary, one runs checked aggregates through a remote session
// on the replica, and afterwards bursts of embedded commits are timed
// until the replica shows them.
const (
	serveRows   = 1 << 16
	serveAgeing = 70000 // embedded commits before anything is timed: the history holds 65,536 records
	serveChunk  = 4096  // ageing commits between waits for the replica
	serveBursts = 5
	serveBurst  = 2048 // commits per burst; far below the 16,384-record send buffer
	serveWait   = 20 * time.Second
)

type servePair struct {
	primary, replica *ankerdb.DB
	inv              *invariant
	rows             int
	rot              rotator // for embedded commits on the primary
}

func (p *servePair) close() error {
	err := p.replica.Close()
	if perr := p.primary.Close(); err == nil {
		err = perr
	}
	return err
}

// caughtUp waits until the replica shows everything the primary has
// completed. A hung replica ends the run instead of stalling it.
func (p *servePair) caughtUp() error {
	target := p.primary.Stats().CompletedCommitTS
	deadline := time.Now().Add(serveWait)
	for p.replica.Stats().CompletedCommitTS < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at commit %d, primary at %d", p.replica.Stats().CompletedCommitTS, target)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// openPair is one complete set-up: primary open, schema, bulk load,
// replica bootstrap, and one commit seen through the stream.
func openPair(r *run) (*servePair, error) {
	p := &servePair{rows: r.rows(serveRows)}
	var err error
	p.primary, err = ankerdb.Open(ankerdb.WithDurability(r.dir("primary")),
		ankerdb.WithSyncPolicy(ankerdb.SyncNone), ankerdb.WithServeAddr("127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	p.rot.s = p.primary
	if p.inv, err = createAcct(p.primary, acctTable, r.cfg.seed, p.rows); err != nil {
		_ = p.primary.Close()
		return nil, err
	}
	err = r.span("replication.bootstrap", func() error {
		var err error
		p.replica, err = ankerdb.Open(ankerdb.WithReplicaOf(p.primary.ServeAddr()), ankerdb.WithServeAddr("127.0.0.1:0"))
		return err
	})
	if err != nil {
		_ = p.primary.Close()
		return nil, err
	}
	g := newOpGen(r.cfg.seed, saltAge+1, 0, p.rows, len(acctTable.vals), 0)
	if err = runOp(p.primary, acctTable, g.next(), nil, &embeddedSpans); err == nil {
		err = p.caughtUp()
	}
	if err != nil {
		_ = p.close()
		return nil, err
	}
	return p, nil
}

// commits runs n embedded transfers on the primary.
func (p *servePair) commits(g *opGen, n int) error {
	for i := 0; i < n; i++ {
		if err := runOp(p.primary, acctTable, g.next(), nil, &embeddedSpans); err != nil {
			return err
		}
		if err := p.rot.tick(); err != nil {
			return err
		}
	}
	return nil
}

// replicaRead is the OLAP transaction of serve-replica: one checked
// column sum through a remote session on the replica.
func replicaRead(s ankerdb.Session, inv *invariant, col string, tr *tracer) error {
	tr.txnBegin("client.olap_txn")
	defer tr.end()
	tr.begin(remoteSpans.begin)
	tx, err := s.BeginTxn(ankerdb.OLAP)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(remoteSpans.get)
	sum, err := tx.Aggregate(inv.table, col, ankerdb.Sum)
	tr.end()
	if err == nil {
		err = inv.check(col, sum, -1)
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	tr.begin(remoteSpans.commit)
	err = tx.Commit()
	tr.end()
	return err
}

// window runs both remote clients against the given addresses.
func (p *servePair) window(r *run, length time.Duration, salt int64, primaryAddr string, trs [2]*tracer) (window, *loadStats, *loadStats, error) {
	var sess [2]*ankerdb.RemoteSession
	for i, addr := range []string{primaryAddr, p.replica.ServeAddr()} {
		err := r.span("client.dial", func() error {
			var err error
			sess[i], err = ankerdb.Dial(addr, "")
			return err
		})
		if err != nil {
			return window{}, nil, nil, err
		}
		defer sess[i].Close()
	}
	og := newOpGen(r.cfg.seed, saltWriter+salt, 0, p.rows, len(acctTable.vals), 10)
	qg := newRand(r.cfg.seed+salt, saltOLAP)
	w, st := runWindow(length, 10,
		transferClient(sess[0], acctTable, og, true, trs[0], &remoteSpans),
		loadClient{step: func() error {
			return replicaRead(sess[1], p.inv, acctTable.vals[qg.Intn(len(acctTable.vals))], trs[1])
		}})
	for _, s := range st {
		r.account(s.attempted, s.failed, s.err)
	}
	return w, st[0], st[1], nil
}

func runServeReplica(r *run) error {
	var p *servePair
	closePair, err := r.setups(2*time.Second, func() (func() error, error) {
		var err error
		if p, err = openPair(r); err != nil {
			return nil, err
		}
		return p.close, nil
	})
	if err != nil {
		return err
	}
	defer func() { _ = closePair() }()

	// Ageing: once the publisher's 65,536-record history is full the
	// primary's commit path is an order of magnitude slower, as on any
	// long-lived server; a window straddling that point would measure a
	// mixture. Chunked, so the replica's send buffer cannot overflow.
	if err := r.phase("ageing", 15*time.Second, func() error {
		g := newOpGen(r.cfg.seed, saltAge, 0, p.rows, len(acctTable.vals), 0)
		n := r.count(serveAgeing)
		for done := 0; done < n; done += serveChunk {
			if err := p.commits(g, min(serveChunk, n-done)); err != nil {
				return err
			}
			if err := p.caughtUp(); err != nil {
				return err
			}
		}
		r.account(int64(n), 0, nil)
		return nil
	}); err != nil {
		return err
	}

	if !r.cfg.trace {
		if err := r.phase("window", windowBudget(r.window()), func() error {
			w, oltp, olap, err := p.window(r, r.window(), 0, p.primary.ServeAddr(), [2]*tracer{})
			if err != nil {
				return err
			}
			r.probe()
			r.emitOLTP(w, oltp)
			r.emitOLAP(w, olap)
			return nil
		}); err != nil {
			return err
		}
	} else if err := r.phase("traced-window", 2*windowBudget(r.window()/2)+2*time.Second, func() error { return p.tracedWindow(r) }); err != nil {
		return err
	}

	if err := r.phase("burst-drain", 15*time.Second, func() error { return p.bursts(r) }); err != nil {
		return err
	}
	pst, rst := p.primary.Stats(), p.replica.Stats()
	var drop, boot error
	if pst.ReplSubscriberDrop != 0 {
		drop = fmt.Errorf("%d subscriber drops", pst.ReplSubscriberDrop)
	}
	if rst.ReplicaBootstraps != 1 {
		boot = fmt.Errorf("%d bootstraps", rst.ReplicaBootstraps)
	}
	r.check("no replication subscriber was dropped", drop)
	r.check("the replica bootstrapped exactly once", boot)
	r.check("primary has the load-time sums and row count", verifyAcct(p.primary, acctTable, p.inv))
	r.check("replica has the load-time sums and row count", errors.Join(p.caughtUp(), verifyAcct(p.replica, acctTable, p.inv)))

	if r.cfg.trace {
		self := r.selfTimes()
		r.emitSpan("client.dial_ms", "client.dial", self, 1e6)
		r.emitSpan("client.begin_rt_us", remoteSpans.begin, self, 1e3)
		r.emitSpan("client.op_rt_us", remoteSpans.get, self, 1e3)
		r.emitSpan("client.commit_rt_us", remoteSpans.commit, self, 1e3)
		r.emitSpan("replication.bootstrap_s", "replication.bootstrap", self, 1e9)
		r.emitSpan("replication.burst_write_ms", "replication.burst_write", self, 1e6)
		r.emitSpan("replication.burst_drain_ms", "replication.burst_drain", self, 1e6)
		return r.phase("kernels", 12*time.Second, func() error {
			r.kernelPublisher()
			return r.kernelRepl()
		})
	}
	return nil
}

// tracedWindow runs an untraced reference window, then the traced one
// with a counting proxy between the OLTP client and the primary.
func (p *servePair) tracedWindow(r *run) error {
	half := r.window() / 2
	refW, ref, refOLAP, err := p.window(r, half, 0, p.primary.ServeAddr(), [2]*tracer{})
	if err != nil {
		return err
	}
	r.noteOLAPTail(refOLAP)
	proxy, err := newCountingProxy(p.primary.ServeAddr())
	if err != nil {
		return err
	}
	defer proxy.close()

	// The size of an OK response: what one Set costs on the way back.
	sess, err := ankerdb.Dial(proxy.addr(), "")
	if err != nil {
		return err
	}
	tx, err := sess.BeginTxn(ankerdb.OLTP)
	if err != nil {
		sess.Close()
		return err
	}
	c0 := proxy.counts()
	err = tx.Set(acctTable.table, acctTable.vals[0], 0, 0)
	c1 := proxy.counts()
	_ = tx.Abort()
	sess.Close()
	if err != nil {
		return err
	}
	r.emit("wire.ok_resp_bytes", float64(c1.down-c0.down), 1)

	trs := [2]*tracer{r.tracer(0, 1), r.tracer(1, 1)}
	before, rbefore, c0 := p.primary.Stats(), p.replica.Stats(), proxy.counts()
	w, oltp, _, err := p.window(r, half, 1, proxy.addr(), trs)
	if err != nil {
		return err
	}
	after, rafter, c1 := p.primary.Stats(), p.replica.Stats(), proxy.counts()
	r.probe()
	r.emitCommitLayers(before, after)
	r.emitOLAPLayers(rbefore, rafter)
	txns := float64(oltp.attempted)
	r.emit("wire.round_trips_per_txn", float64(c1.trips-c0.trips)/txns, oltp.attempted)
	r.emit("wire.bytes_per_txn", float64(c1.up+c1.down-c0.up-c0.down)/txns, oltp.attempted)
	r.emit("trace.overhead_share", 1-oltp.rate(w)/ref.rate(refW), oltp.samples())
	r.keep(trs[0], trs[1])
	return nil
}

// bursts times serveBursts bursts of embedded commits on the primary,
// each from its first commit until the replica shows its last.
func (p *servePair) bursts(r *run) error {
	if err := p.caughtUp(); err != nil {
		return err
	}
	g := newOpGen(r.cfg.seed, saltBurst, 0, p.rows, len(acctTable.vals), 0)
	n := r.count(serveBurst)
	before := p.primary.Stats()
	var rates []float64
	var maxLag uint64
	for b := 0; b < serveBursts; b++ {
		t0 := time.Now()
		if err := r.span("replication.burst_write", func() error { return p.commits(g, n) }); err != nil {
			return err
		}
		if lag := p.primary.Stats().MaxReplicaLag; lag > maxLag {
			maxLag = lag
		}
		if err := r.span("replication.burst_drain", p.caughtUp); err != nil {
			return err
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
	}
	r.account(int64(serveBursts*n), 0, nil)
	after := p.primary.Stats()
	r.slices["repl_visible_commits_per_s"] = rates
	r.note("repl_visible_commits_per_s", median(rates), int64(len(rates)))
	if r.cfg.trace {
		r.emit("replication.max_lag_commits", float64(maxLag), serveBursts)
		r.emit("repl.frames_per_commit", ratio(after.ReplFramesStreamed-before.ReplFramesStreamed, after.Commits-before.Commits), int64(after.Commits-before.Commits))
	}
	return nil
}
