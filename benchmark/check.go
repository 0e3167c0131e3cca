package main

import "fmt"

// invariant holds what no transaction of the benchmark ever changes:
// the visible row count of a table and the sum of each value column.
// Transfers move an amount between two rows of one column, inserted
// rows are all zero, so every OLAP result, the recovered database and
// the replica are checked against these constants computed at load.
type invariant struct {
	table string
	rows  int64
	sums  map[string]int64
}

func newInvariant(table string, rows int) *invariant {
	return &invariant{table: table, rows: int64(rows), sums: map[string]int64{}}
}

// note records the values loaded into col.
func (inv *invariant) note(col string, vals []int64) {
	var s int64
	for _, v := range vals {
		s += v
	}
	inv.sums[col] = s
}

// check compares one aggregate over col against the constants; count
// is ignored when negative.
func (inv *invariant) check(col string, sum, count int64) error {
	want, ok := inv.sums[col]
	if !ok {
		return fmt.Errorf("invariant: %s.%s has no recorded sum", inv.table, col)
	}
	if sum != want {
		return fmt.Errorf("invariant: sum(%s.%s) = %d, want %d", inv.table, col, sum, want)
	}
	if count >= 0 && count != inv.rows {
		return fmt.Errorf("invariant: count(%s) = %d, want %d", inv.table, count, inv.rows)
	}
	return nil
}
