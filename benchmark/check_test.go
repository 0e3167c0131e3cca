package main

import (
	"testing"

	"ankerdb"
)

func TestInvariantRejectsPlantedErrors(t *testing.T) {
	inv := newInvariant("acct", 3)
	inv.note("c1", []int64{10, 20, 30})
	if err := inv.check("c1", 60, 3); err != nil {
		t.Fatalf("correct aggregate rejected: %v", err)
	}
	if err := inv.check("c1", 61, 3); err == nil {
		t.Fatal("off-by-one sum accepted")
	}
	if err := inv.check("c1", 60, 2); err == nil {
		t.Fatal("missing row accepted")
	}
	if err := inv.check("c9", 60, 3); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := inv.check("c1", 60, -1); err != nil {
		t.Fatalf("count must be ignored when negative: %v", err)
	}
}

// The checker must be able to fail against a real database: plant an
// off-by-one sum, then a missing row, and expect verifyAcct to notice
// each; transfers in between must keep passing.
func TestVerifyAcctAgainstEngine(t *testing.T) {
	db, err := ankerdb.Open(ankerdb.WithCostModel(ankerdb.ZeroCost))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	inv, err := createAcct(db, acctTable, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	g := newOpGen(1, saltWriter, 0, 4096, len(acctTable.vals), 10)
	for i := 0; i < 500; i++ {
		if err := runOp(db, acctTable, g.next(), nil, &embeddedSpans); err != nil {
			t.Fatal(err)
		}
	}
	if err := verifyAcct(db, acctTable, inv); err != nil {
		t.Fatalf("transfers broke the invariant: %v", err)
	}

	commit := func(fn func(tx *ankerdb.Txn) error) {
		t.Helper()
		tx, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var old int64
	commit(func(tx *ankerdb.Txn) (err error) {
		if old, err = tx.Get("acct", "c3", 17); err != nil {
			return err
		}
		return tx.Set("acct", "c3", 17, old+1)
	})
	if err := verifyAcct(db, acctTable, inv); err == nil {
		t.Fatal("planted off-by-one sum not detected")
	}
	commit(func(tx *ankerdb.Txn) error { return tx.Set("acct", "c3", 17, old) })
	if err := verifyAcct(db, acctTable, inv); err != nil {
		t.Fatalf("restored table rejected: %v", err)
	}

	// A missing row that leaves every sum intact: insert an all-zero
	// row (as an order does), expect one row more, then delete it
	// behind the checker's back.
	var row int
	commit(func(tx *ankerdb.Txn) (err error) { row, err = tx.Insert("acct", nil); return err })
	inv.rows++
	if err := verifyAcct(db, acctTable, inv); err != nil {
		t.Fatalf("inserted zero row rejected: %v", err)
	}
	commit(func(tx *ankerdb.Txn) error { return tx.Delete("acct", row) })
	if err := verifyAcct(db, acctTable, inv); err == nil {
		t.Fatal("planted missing row not detected")
	}
}
