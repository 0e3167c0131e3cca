package workload

import (
	"reflect"
	"testing"

	"ankerdb"
)

// TestGenDeterministic: two generators with identical arguments emit
// identical op streams — the property the fault harness's replay
// stands on.
func TestGenDeterministic(t *testing.T) {
	cols := []string{"c0", "c1", "c2"}
	for _, p := range Profiles {
		a := NewGen(p, 42, cols, 1024)
		b := NewGen(p, 42, cols, 1024)
		for i := 0; i < 500; i++ {
			oa, ob := a.Next(), b.Next()
			if !reflect.DeepEqual(oa, ob) {
				t.Fatalf("%s: op %d diverged: %+v vs %+v", p, i, oa, ob)
			}
		}
		c := NewGen(p, 43, cols, 1024)
		same := true
		for i := 0; i < 500; i++ {
			if !reflect.DeepEqual(a.Next(), c.Next()) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: seeds 42 and 43 produced identical 500-op streams", p)
		}
	}
}

// TestTPCCMix sanity-checks the op shapes: new-order inserts carry one
// value per column, and the stream contains all four op kinds.
func TestTPCCMix(t *testing.T) {
	cols := []string{"c0", "c1"}
	g := NewGen(TPCC, 7, cols, 256)
	var inserts, deletes, readOnly, payments int
	for i := 0; i < 1000; i++ {
		op := g.Next()
		switch {
		case len(op.Inserts) > 0:
			inserts++
			if len(op.Inserts[0]) != len(cols) {
				t.Fatalf("insert has %d values, want %d", len(op.Inserts[0]), len(cols))
			}
			if len(op.Writes) != 4 {
				t.Fatalf("new-order has %d stock writes, want 4", len(op.Writes))
			}
		case op.DeleteOldest:
			deletes++
		case len(op.Writes) == 0:
			readOnly++
		default:
			payments++
		}
	}
	for name, n := range map[string]int{
		"new-order": inserts, "delivery": deletes, "order-status": readOnly, "payment": payments,
	} {
		if n == 0 {
			t.Fatalf("1000 TPCC ops produced no %s transactions", name)
		}
	}
}

// TestRunnerApply drives a runner against a live database and checks
// the resolved results against an oracle of expected state.
func TestRunnerApply(t *testing.T) {
	cols := []string{"c0", "c1"}
	schema := ankerdb.Schema{Table: "bench"}
	for _, c := range cols {
		schema.Columns = append(schema.Columns, ankerdb.ColumnDef{Name: c, Type: ankerdb.Int64})
	}
	const rows = 128
	db, err := ankerdb.Open(
		ankerdb.WithSnapshotStrategy(ankerdb.Physical),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithInitialSchema(schema, rows),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	oracle := map[Cell]int64{} // written cells only; zero-valued cells stay absent
	g := NewGen(TPCC, 11, cols, rows)
	r := &Runner{DB: db, Table: "bench", Cols: cols}
	deleted := map[int]bool{}
	for i := 0; i < 400; i++ {
		op := g.Next()
		res, err := r.Apply(op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !res.Committed {
			t.Fatalf("op %d: conflict with a single writer", i)
		}
		for j, c := range op.Reads {
			want := oracle[c] // zero for never-written cells
			if res.ReadVals[j] != want {
				t.Fatalf("op %d: read %v = %d, want %d", i, c, res.ReadVals[j], want)
			}
		}
		for _, w := range op.Writes {
			oracle[Cell{w.Col, w.Row}] = w.Val
		}
		for j, row := range res.Inserted {
			for k, col := range cols {
				oracle[Cell{col, row}] = op.Inserts[j][k]
			}
		}
		if res.Deleted >= 0 {
			deleted[res.Deleted] = true
		}
	}
	// Deleted rows must be gone, surviving inserts must be readable.
	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	for row := range deleted {
		if _, err := txn.Get("bench", "c0", row); err == nil {
			t.Fatalf("deleted row %d still visible", row)
		}
	}
	for _, row := range r.Live() {
		v, err := txn.Get("bench", "c0", row)
		if err != nil {
			t.Fatalf("live inserted row %d: %v", row, err)
		}
		if want := oracle[Cell{"c0", row}]; v != want {
			t.Fatalf("live row %d = %d, want %d", row, v, want)
		}
	}
}
