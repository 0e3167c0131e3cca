package main

import (
	"fmt"

	"ankerdb"
)

// acct names the table the transfer mix runs on: its value columns
// are the ones transfers move amounts between.
type acct struct {
	table string
	vals  []string
}

var acctTable = acct{table: "acct", vals: []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7"}}

// spanNames are the span names one OLTP client records under: an
// embedded client times engine calls (txn.*), a remote one round
// trips (client.*).
type spanNames struct{ txn, begin, get, set, commit string }

var (
	embeddedSpans = spanNames{"txn", "txn.begin", "txn.get", "txn.set", "txn.commit"}
	remoteSpans   = spanNames{"client.txn", "client.begin_rt", "client.op_rt", "client.op_rt", "client.commit_rt"}
)

// runOp executes one generated OLTP transaction through s: Begin, the
// reads (4 Get), for a transfer the writes (4 Set), Commit. A transfer
// keeps every column sum unchanged.
func runOp(s ankerdb.Session, t acct, o op, tr *tracer, sn *spanNames) error {
	tr.txnBegin(sn.txn)
	defer tr.end()
	tr.begin(sn.begin)
	tx, err := s.BeginTxn(ankerdb.OLTP)
	tr.end()
	if err != nil {
		return err
	}
	if err := transferBody(tx, t, o, tr, sn); err != nil {
		_ = tx.Abort()
		return err
	}
	tr.begin(sn.commit)
	err = tx.Commit()
	tr.end()
	return err
}

func transferBody(tx ankerdb.SessionTxn, t acct, o op, tr *tracer, sn *spanNames) error {
	cols := []string{t.vals[o.c1], t.vals[o.c2]}
	if o.c1 == o.c2 {
		cols = cols[:1] // a table with one value column
	}
	rows := [2]int{int(o.a), int(o.b)}
	var got [2][2]int64
	for ci, c := range cols {
		for ri, row := range rows {
			tr.begin(sn.get)
			v, err := tx.Get(t.table, c, row)
			tr.end()
			if err != nil {
				return fmt.Errorf("get %s.%s[%d]: %w", t.table, c, row, err)
			}
			got[ci][ri] = v
		}
	}
	if o.kind == opAudit {
		return nil
	}
	x := int64(o.x)
	for ci, c := range cols {
		for ri, row := range rows {
			v := got[ci][ri] - x
			if ri == 1 {
				v = got[ci][ri] + x
			}
			tr.begin(sn.set)
			err := tx.Set(t.table, c, row, v)
			tr.end()
			if err != nil {
				return fmt.Errorf("set %s.%s[%d]: %w", t.table, c, row, err)
			}
		}
	}
	return nil
}

// createAcct creates t with a sorted id column c0 and the value
// columns, bulk-loads seed-derived values and returns the constants
// every later result is checked against.
func createAcct(db *ankerdb.DB, t acct, seed int64, rows int) (*invariant, error) {
	sb := ankerdb.NewSchema(t.table).Int64("c0")
	for _, c := range t.vals {
		sb.Int64(c)
	}
	if err := db.CreateTable(sb.Build(), rows); err != nil {
		return nil, err
	}
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := db.Load(t.table, "c0", ids); err != nil {
		return nil, err
	}
	inv := newInvariant(t.table, rows)
	for i, c := range t.vals {
		vals := loadValues(seed, i, rows)
		if err := db.Load(t.table, c, vals); err != nil {
			return nil, err
		}
		inv.note(c, vals)
	}
	return inv, nil
}

// verifyAcct reads every value column's sum and the row count from a
// fresh OLAP snapshot of s and checks them against inv.
func verifyAcct(s ankerdb.Session, t acct, inv *invariant) error {
	tx, err := s.BeginTxn(ankerdb.OLAP)
	if err != nil {
		return err
	}
	defer func() { _ = tx.Commit() }()
	count, err := tx.Aggregate(t.table, t.vals[0], ankerdb.Count)
	if err != nil {
		return err
	}
	for _, c := range t.vals {
		sum, err := tx.Aggregate(t.table, c, ankerdb.Sum)
		if err != nil {
			return err
		}
		if err := inv.check(c, sum, count); err != nil {
			return err
		}
	}
	return nil
}

// rotateEvery is how many OLTP transactions a client commits between
// two snapshot rotations (see rotator).
const rotateEvery = 256

// rotator keeps a database that takes no OLAP traffic stationary. The
// snapshot manager keeps its current generation pinned until the next
// OLAP transaction replaces it, and a checkpoint or a replica
// bootstrap creates one: from then on the GC floor stays at that
// timestamp, version chains and validation records grow without bound
// and the commit path slows with every commit (two writers fall from
// ~100k to ~15k txn/s within 12 s). Until the engine bounds this
// itself, every client of such a database begins and commits an empty
// OLAP transaction — no column is touched, so no snapshot is taken —
// after every rotateEvery of its transactions.
type rotator struct {
	s ankerdb.Session
	n int
}

// tick counts one transaction; a nil rotator does nothing.
func (r *rotator) tick() error {
	if r == nil {
		return nil
	}
	r.n++
	if r.n%rotateEvery != 0 {
		return nil
	}
	tx, err := r.s.BeginTxn(ankerdb.OLAP)
	if err != nil {
		return err
	}
	return tx.Commit()
}

// transferClient returns an OLTP client running g's transfer mix
// through s, closed loop. With rotate set it also keeps s's database
// stationary (see rotator).
func transferClient(s ankerdb.Session, t acct, g *opGen, rotate bool, tr *tracer, sn *spanNames) loadClient {
	var rot *rotator
	if rotate {
		rot = &rotator{s: s}
	}
	return loadClient{step: func() error {
		if err := runOp(s, t, g.next(), tr, sn); err != nil {
			return err
		}
		return rot.tick()
	}}
}
