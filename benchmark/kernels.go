package main

import (
	"fmt"
	"net"
	"slices"
	"time"

	"ankerdb"
	"ankerdb/internal/index"
	"ankerdb/internal/mvcc"
	"ankerdb/internal/repl"
	"ankerdb/internal/snapshot"
	"ankerdb/internal/storage"
	"ankerdb/internal/vmem"
	"ankerdb/internal/wal"
)

// Micro-kernels (source C of the per-layer numbers): fixed-input calls
// into the public functions of internal packages, a fraction of a
// second each, run on one goroutine with nothing else running. Each
// takes the median of kernelRounds timings of the same fixed work.

const (
	kernelRounds = 5
	kernelRows   = 1 << 20 // one column of the size the paper's Table 1 uses
)

var kernelSink int64

// rounds is how many timings of the same work a kernel takes the
// median of.
func (r *run) rounds() int {
	if r.cfg.short {
		return 1
	}
	return kernelRounds
}

// timed returns the median wall time of rounds runs of fn.
func timed(rounds int, fn func()) time.Duration {
	ds := make([]time.Duration, rounds)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	return medianDuration(ds)
}

func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// perOp is d spread over n operations, in units of unit.
func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(n) / float64(unit)
}

// kernelOLTPAllocs counts heap allocations per transfer-mix
// transaction over 50,000 of them on db, one client.
func (r *run) kernelOLTPAllocs(db ankerdb.Session, rows int) error {
	n := r.count(50000)
	g := newOpGen(r.cfg.seed, saltWriter+99, 0, rows, len(acctTable.vals), 10)
	allocs, bytes, err := allocsPer(n, func() error { return runOp(db, acctTable, g.next(), nil, &embeddedSpans) })
	r.account(int64(n), 0, err)
	if err != nil {
		return err
	}
	r.emit("runtime.allocs_per_oltp_txn", allocs, int64(n))
	r.emit("runtime.alloc_bytes_per_oltp_txn", bytes, int64(n))
	return nil
}

// kernelMVCC times the timestamp oracle (allocate + complete one
// commit timestamp) and a precision-locking validation of four point
// reads against 1,024 retained commit records of eight writes each.
func (r *run) kernelMVCC() {
	n := r.count(200000)
	o := &mvcc.Oracle{}
	d := timed(r.rounds(), func() {
		for i := 0; i < n; i++ {
			o.Complete(o.NextCommitTSBlock(1))
		}
	})
	r.emit("mvcc.oracle_ts_ns", perOp(d, n, time.Nanosecond), int64(n))

	rl := mvcc.NewRecentList()
	col := mvcc.ColumnID{Table: 0, Col: 1}
	for ts := uint64(1); ts <= 1024; ts++ {
		rec := mvcc.CommitRecord{TS: ts}
		for w := 0; w < 8; w++ {
			rec.Writes = append(rec.Writes, mvcc.WriteEntry{Col: col, Row: int(ts)*8 + w, Old: 1, New: 2})
		}
		rl.Add(rec)
	}
	tx := mvcc.NewTxnState(1, 0, mvcc.OLTP)
	for row := 0; row < 4; row++ {
		tx.NotePointRead(col, row) // rows no record wrote: every record is walked
	}
	m := r.count(2000)
	d = timed(r.rounds(), func() {
		for i := 0; i < m; i++ {
			kernelSink += int64(rl.Validate(tx))
		}
	})
	r.emit("mvcc.validate_ns", perOp(d, m, time.Nanosecond), int64(m))
}

// kernelStorageScan times the tight scan loop of the OLAP side:
// resolve a frozen 1M-row column to its physical pages and sum it
// page-wise.
func (r *run) kernelStorageScan() {
	proc := vmem.NewProcess()
	defer proc.Destroy()
	rows := r.rows(kernelRows)
	w, err := storage.NewWordArray(proc, rows)
	if err != nil {
		panic(err)
	}
	d := timed(r.rounds(), func() {
		pc := w.Resolve()
		var sum uint64
		for row := 0; row < rows; {
			words, base := pc.Page(row)
			for _, v := range words {
				sum += v
			}
			row = base + len(words)
		}
		kernelSink += int64(sum)
	})
	r.emit("storage.scan_mrows_per_s", float64(rows)/d.Seconds()/1e6, int64(rows))
}

// kernelSnapshots times the creation of one snapshot of one 1M-row
// column under each of the four strategies (the paper's Table 1).
func (r *run) kernelSnapshots() error {
	rows := r.rows(kernelRows)
	for _, s := range []struct{ kind, metric string }{
		{snapshot.KindPhysical, "snapshot.physical.create_us"},
		{snapshot.KindFork, "snapshot.fork.create_us"},
		{snapshot.KindRewired, "snapshot.rewired.create_us"},
		{snapshot.KindVMSnap, "snapshot.vmsnap.create_us"},
	} {
		proc := vmem.NewProcess()
		strat, err := snapshot.New(s.kind, proc)
		if err != nil {
			return err
		}
		var col storage.WordArray
		if ra, ok := strat.(snapshot.RegionAllocator); ok {
			reg, _, err := ra.NewRegion("kernel", storage.ColumnBytes(proc, rows))
			if err != nil {
				return err
			}
			col = storage.ViewWordArray(proc, reg.Addr, rows)
			col.PreFault()
		} else if col, err = storage.NewWordArray(proc, rows); err != nil {
			return err
		}
		regions := []snapshot.Region{{Addr: col.Addr(), Len: col.SizeBytes()}}
		var serr error
		d := timed(r.rounds(), func() {
			snap, err := strat.Snapshot(regions)
			if err != nil {
				serr = err
				return
			}
			snap.Release()
		})
		proc.Destroy()
		if serr != nil {
			return fmt.Errorf("%s snapshot: %w", s.kind, serr)
		}
		r.emit(s.metric, perOp(d, 1, time.Microsecond), int64(r.rounds()))
	}
	return nil
}

// kernelVMem times the vm_snapshot call on a 1M-row column and the
// copy-on-write fault of the first store to each snapshotted page.
func (r *run) kernelVMem() error {
	proc := vmem.NewProcess()
	defer proc.Destroy()
	w, err := storage.NewWordArray(proc, r.rows(kernelRows))
	if err != nil {
		return err
	}
	ps := proc.PageSize()
	pages := int(w.SizeBytes() / ps)
	var snaps, faults []time.Duration
	for i := 0; i < r.rounds(); i++ {
		t0 := time.Now()
		addr, err := proc.VMSnapshot(0, w.Addr(), w.SizeBytes())
		if err != nil {
			return err
		}
		t1 := time.Now()
		for off := uint64(0); off < w.SizeBytes(); off += ps {
			proc.Store(w.Addr()+off, uint64(i))
		}
		t2 := time.Now()
		snaps, faults = append(snaps, t1.Sub(t0)), append(faults, t2.Sub(t1))
		if err := proc.Munmap(addr, w.SizeBytes()); err != nil {
			return err
		}
	}
	r.emit("vmem.vm_snapshot_us", perOp(medianDuration(snaps), 1, time.Microsecond), int64(len(snaps)))
	r.emit("vmem.cow_fault_ns", perOp(medianDuration(faults), pages, time.Nanosecond), int64(pages))
	return nil
}

// kernelIndex times equality probes of a hash index, 100-key range
// probes of an ordered index and inserts, all at 1M entries.
func (r *run) kernelIndex() {
	probes, rows := r.count(100000), r.rows(kernelRows)
	hash, ordered := index.New(index.Hash, 0), index.New(index.Ordered, 0)
	for i := 0; i < rows; i++ {
		hash.Add(int64(i), i, 1)
		ordered.Add(int64(i), i, 1)
	}
	key := func(i int) int64 { return int64(uint32(i) * 2654435761 % uint32(rows)) }
	d := timed(r.rounds(), func() {
		for i := 0; i < probes; i++ {
			rows, _ := hash.ProbeEq(key(i), 2)
			kernelSink += int64(len(rows))
		}
	})
	r.emit("index.hash_probe_ns", perOp(d, probes, time.Nanosecond), int64(probes))
	d = timed(r.rounds(), func() {
		for i := 0; i < probes/10; i++ {
			lo := key(i) % int64(rows-100)
			rows, _ := ordered.ProbeRange(lo, lo+99, 2)
			kernelSink += int64(len(rows))
		}
	})
	r.emit("index.ordered_range_us", perOp(d, probes/10, time.Microsecond), int64(probes/10))
	next := rows
	d = timed(r.rounds(), func() {
		for i := 0; i < probes; i++ {
			hash.Add(int64(next), next, 2)
			next++
		}
	})
	r.emit("index.insert_ns", perOp(d, probes, time.Nanosecond), int64(probes))
}

// kernelWAL times the log alone under SyncNone: appending batches of
// 1 and of 16 transfer-sized commit records, the encoded size of one,
// and replaying 100,000 of them.
func (r *run) kernelWAL() error {
	rec := func(ts uint64) wal.CommitRecord {
		c := wal.CommitRecord{TS: ts}
		for w := 0; w < 4; w++ {
			c.Writes = append(c.Writes, wal.RedoWrite{Table: 0, Col: 1 + w/2, Row: int(ts)%4096 + w, Val: int64(ts)})
		}
		return c
	}
	r.emit("wal.encode_bytes_per_record", float64(len(rec(1).Encode())), 1)

	dir := r.dir("kernel-wal")
	log, err := wal.Open(dir, 1, wal.SyncNone)
	if err != nil {
		return err
	}
	// A log whose schema log is empty discards its segments as orphans
	// on the next Open; give it the table the records address.
	if err := log.AppendTable(wal.TableRecord{Name: "acct", Rows: 4096 + 4,
		Columns: []wal.ColumnDef{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}}}); err != nil {
		return err
	}
	n := r.count(10000) / 16 * 16 // records per append round; 2 kernels x 5 rounds leave 100,000 behind
	batch := make([]wal.CommitRecord, 16)
	ts := uint64(0)
	var aerr error
	appendRound := func(size int) func() {
		return func() {
			for i := 0; i < n/size; i++ {
				for j := 0; j < size; j++ {
					ts++
					batch[j] = rec(ts)
				}
				if err := log.AppendCommits(0, batch[:size]); err != nil {
					aerr = err
				}
			}
		}
	}
	d1 := timed(r.rounds(), appendRound(1))
	d16 := timed(r.rounds(), appendRound(16))
	if err := log.Close(); err != nil {
		return err
	}
	if aerr != nil {
		return aerr
	}
	r.emit("wal.append1_us", perOp(d1, n, time.Microsecond), int64(n))
	r.emit("wal.append16_us_per_record", perOp(d16, n, time.Microsecond), int64(n))

	// Replay what the two append kernels left behind.
	log, err = wal.Open(dir, 1, wal.SyncNone)
	if err != nil {
		return err
	}
	records := 0
	t0 := time.Now()
	err = log.ReplayCommits(
		func(wal.LoadRecord) error { return nil },
		func(c wal.CommitRecord) error { records++; kernelSink += int64(c.TS); return nil })
	d := time.Since(t0)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.emit("wal.replay_mrec_per_s", float64(records)/d.Seconds()/1e6, int64(records))
	return nil
}

// kernelRepl times the replication wire: one framed message echoed
// over loopback, and a gob Heartbeat/Ack pair encoded and decoded the
// way every control frame is today.
func (r *run) kernelRepl() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		c := repl.NewConn(nc)
		defer c.Close()
		for {
			t, p, err := c.ReadMsg()
			if err != nil {
				done <- nil // client closed
				return
			}
			if err := c.Send(t, p); err != nil {
				done <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c := repl.NewConn(nc)
	payload := make([]byte, 64)
	trips := r.count(2000)
	var rerr error
	d := timed(r.rounds(), func() {
		for i := 0; i < trips; i++ {
			if err := c.Send(repl.MsgHeartbeat, payload); err != nil {
				rerr = err
				return
			}
			if _, _, err := c.ReadMsg(); err != nil {
				rerr = err
				return
			}
		}
	})
	c.Close()
	if err := <-done; err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	r.emit("repl.frame_rt_us", perOp(d, trips, time.Microsecond), int64(trips))

	pairs := r.count(2000)
	var bytes int
	d = timed(r.rounds(), func() {
		for i := 0; i < pairs; i++ {
			hb, err := repl.EncodeGob(repl.Heartbeat{Watermark: uint64(i)})
			if err != nil {
				rerr = err
				return
			}
			var h repl.Heartbeat
			if rerr = repl.DecodeGob(hb, &h); rerr != nil {
				return
			}
			ack, err := repl.EncodeGob(repl.Ack{AppliedTS: h.Watermark})
			if err != nil {
				rerr = err
				return
			}
			var a repl.Ack
			if rerr = repl.DecodeGob(ack, &a); rerr != nil {
				return
			}
			bytes = len(hb) + len(ack)
		}
	})
	if rerr != nil {
		return rerr
	}
	r.emit("repl.gob_pair_us", perOp(d, pairs, time.Microsecond), int64(pairs))
	r.emit("repl.gob_pair_bytes", float64(bytes), 1)
	return nil
}

// kernelPublisher times Stage + Advance per record on a publisher with
// an empty history and on one whose 65,536-record history is full. The
// gap between the two is why serve-replica is aged past that point
// before anything is timed.
func (r *run) kernelPublisher() {
	payload := make([]byte, 96)
	stage := func(p *repl.Publisher, from, n int) time.Duration {
		t0 := time.Now()
		for ts := uint64(from); ts < uint64(from+n); ts++ {
			p.Stage(repl.Record{TS: ts, Type: repl.MsgCommit, Payload: payload})
			p.Advance(ts)
		}
		return time.Since(t0)
	}
	n := r.count(2000)
	var empty, full []time.Duration
	for i := 0; i < r.rounds(); i++ {
		p := repl.NewPublisher(0)
		empty = append(empty, stage(p, 1, n))
		p.Close()
	}
	p := repl.NewPublisher(0)
	stage(p, 1, 1<<16)
	for i := 0; i < r.rounds(); i++ {
		full = append(full, stage(p, 1<<16+1+i*n, n))
	}
	p.Close()
	r.emit("repl.stage_empty_ns", perOp(medianDuration(empty), n, time.Nanosecond), int64(n))
	r.emit("repl.stage_full_ns", perOp(medianDuration(full), n, time.Nanosecond), int64(n))
}
