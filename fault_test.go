package ankerdb_test

// Crash-recovery fault harness: deterministic workloads (internal/
// workload) run against a scripted fault FS (internal/fault) whose
// seeded schedule injects a crash — optionally with torn writes, short
// writes, or lying fsyncs — after which the directory is reopened with
// the real FS and the recovered state is checked against an oracle of
// exactly the committed transactions. Honest-sync schedules admit an
// exact check (SyncAlways means a nil Commit is durable; only the one
// transaction in flight at the crash is in doubt, and it must be
// all-or-nothing). Fsync-lie schedules get the weaker contract:
// self-consistency, every surviving value drawn from the write
// history, and a byte-identical second recovery.

import (
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ankerdb"
	"ankerdb/internal/fault"
	"ankerdb/internal/workload"
)

const faultRows = 64

var faultCols = []string{"c0", "c1"}

func faultSchema() ankerdb.Schema {
	return ankerdb.Schema{
		Table: "bench",
		Columns: []ankerdb.ColumnDef{
			{Name: "c0", Type: ankerdb.Int64},
			{Name: "c1", Type: ankerdb.Int64},
		},
	}
}

// openFaultDB opens the harness database: durable, SyncAlways (a nil
// Commit is a durability promise the harness holds recovery to), with
// the scripted FS when fs is non-nil.
func openFaultDB(strat ankerdb.SnapshotStrategy, dir string, fs fault.FS) (*ankerdb.DB, error) {
	opts := []ankerdb.Option{
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithCommitShards(2),
		ankerdb.WithDurability(dir),
		ankerdb.WithSyncPolicy(ankerdb.SyncAlways),
		ankerdb.WithInitialSchema(faultSchema(), faultRows),
	}
	if fs != nil {
		opts = append(opts, ankerdb.WithFS(fs))
	}
	return ankerdb.Open(opts...)
}

// faultRun is the oracle a workload run leaves behind: the state every
// committed transaction built, plus the one op in flight at the crash.
type faultRun struct {
	model   map[workload.Cell]int64 // committed cell writes
	live    []int                   // committed inserted rows, still live
	deleted map[int]bool            // committed deleted rows
	history map[workload.Cell]map[int64]bool
	commits []workload.Op     // committed ops in commit order
	results []workload.Result // their resolved placements, same order

	maybeOp  *workload.Op     // op whose commit was cut off; nil if none
	maybeRes *workload.Result // its resolved placements
}

// runFaultWorkload replays a seeded TPCC-style stream against dir under
// the scripted FS until the crash trips (or maxTxns commit) and returns
// the oracle. Commit errors are only legal once the FS has tripped.
func runFaultWorkload(t *testing.T, strat ankerdb.SnapshotStrategy, dir string, fs *fault.Scripted, seed int64, maxTxns int) faultRun {
	t.Helper()
	fr := faultRun{
		model:   map[workload.Cell]int64{},
		deleted: map[int]bool{},
		history: map[workload.Cell]map[int64]bool{},
	}
	note := func(c workload.Cell, v int64) {
		if fr.history[c] == nil {
			fr.history[c] = map[int64]bool{}
		}
		fr.history[c][v] = true
	}
	db, err := openFaultDB(strat, dir, fs)
	if err != nil {
		if !fs.Tripped() {
			t.Fatalf("open: %v (no crash injected)", err)
		}
		return fr
	}
	// May be cut off by the crash; recovery must then cope with a
	// possibly-absent index, which the verifiers never assume.
	_ = db.CreateIndex("bench", "c0", ankerdb.Hash)

	g := workload.NewGen(seed, faultCols, faultRows)
	r := &workload.Runner{DB: db, Table: "bench", Cols: faultCols}
	for i := 0; i < maxTxns; i++ {
		op := g.Next()
		for _, w := range op.Writes {
			note(workload.Cell{Col: w.Col, Row: w.Row}, w.Val)
		}
		res, err := r.Apply(op)
		for j, row := range res.Inserted {
			for k, col := range faultCols {
				note(workload.Cell{Col: col, Row: row}, op.Inserts[j][k])
			}
		}
		if err != nil {
			if !fs.Tripped() {
				t.Fatalf("op %d: %v (no crash injected)", i, err)
			}
			fr.maybeOp, fr.maybeRes = &op, &res
			break
		}
		if !res.Committed {
			t.Fatalf("op %d: conflict with a single writer", i)
		}
		fr.fold(op, res)
	}
	_ = db.Close() // fails after a trip; the directory is what matters
	return fr
}

// fold applies one committed op to the oracle.
func (fr *faultRun) fold(op workload.Op, res workload.Result) {
	fr.commits = append(fr.commits, op)
	fr.results = append(fr.results, res)
	for _, w := range op.Writes {
		fr.model[workload.Cell{Col: w.Col, Row: w.Row}] = w.Val
	}
	for j, row := range res.Inserted {
		for k, col := range faultCols {
			fr.model[workload.Cell{Col: col, Row: row}] = op.Inserts[j][k]
		}
		fr.live = append(fr.live, row)
		delete(fr.deleted, row)
	}
	if res.Deleted >= 0 {
		for _, col := range faultCols {
			delete(fr.model, workload.Cell{Col: col, Row: res.Deleted})
		}
		fr.deleted[res.Deleted] = true
		for i, row := range fr.live {
			if row == res.Deleted {
				fr.live = append(fr.live[:i:i], fr.live[i+1:]...)
				break
			}
		}
	}
}

// maybeCommitted probes whether the in-flight transaction's effects
// survived. Written values are unique (the generator's value sequence
// is monotone), so one cell decides; atomicity of the rest is what the
// verifier then asserts.
func maybeCommitted(t *testing.T, txn *ankerdb.Txn, fr *faultRun) bool {
	t.Helper()
	op, res := fr.maybeOp, fr.maybeRes
	if len(op.Writes) > 0 {
		v, err := txn.Get("bench", op.Writes[0].Col, op.Writes[0].Row)
		return err == nil && v == op.Writes[0].Val
	}
	if len(res.Inserted) > 0 {
		_, err := txn.Get("bench", "c0", res.Inserted[0])
		return err == nil
	}
	if res.Deleted >= 0 {
		_, err := txn.Get("bench", "c0", res.Deleted)
		return err != nil
	}
	return false // read-only: no observable effect either way
}

// verifyExact reopens dir with the real FS and checks the recovered
// state cell-for-cell against the oracle, tolerating exactly the
// in-flight transaction — which must have applied atomically or not at
// all. Valid only for honest-sync schedules.
func verifyExact(t *testing.T, strat ankerdb.SnapshotStrategy, dir string, fr faultRun) {
	t.Helper()
	db, err := openFaultDB(strat, dir, nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db.Close()
	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[workload.Cell]int64, len(fr.model))
	for c, v := range fr.model {
		expected[c] = v
	}
	live := append([]int(nil), fr.live...)
	deleted := map[int]bool{}
	for r := range fr.deleted {
		deleted[r] = true
	}
	if fr.maybeOp != nil && maybeCommitted(t, txn, &fr) {
		mfr := faultRun{model: expected, live: live, deleted: deleted}
		mfr.fold(*fr.maybeOp, *fr.maybeRes)
		live = mfr.live
	}

	for c, want := range expected {
		got, err := txn.Get("bench", c.Col, c.Row)
		if err != nil || got != want {
			t.Fatalf("recovered %v = %d, %v; want %d", c, got, err, want)
		}
	}
	for row := range deleted {
		if _, err := txn.Get("bench", "c0", row); err == nil {
			t.Fatalf("deleted row %d resurrected by recovery", row)
		}
	}
	vals, err := txn.Scan("bench", "c0")
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if want := faultRows + len(live); len(vals) != want {
		t.Fatalf("recovered visible rows = %d, want %d", len(vals), want)
	}
	// Index-backed lookups agree with the recovered cells (served by
	// the rebuilt index when its creation survived, by scan otherwise).
	checked := 0
	for c, want := range expected {
		if c.Col != "c0" || checked == 3 {
			continue
		}
		rows, err := txn.Lookup("bench", "c0", want)
		if err != nil {
			t.Fatalf("lookup %d: %v", want, err)
		}
		found := false
		for _, r := range rows {
			if r == c.Row {
				found = true
			}
		}
		if !found {
			t.Fatalf("lookup(%d) = %v, missing row %d", want, rows, c.Row)
		}
		checked++
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	// The recovered database must keep working.
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	row, err := w.Insert("bench", map[string]any{"c0": int64(424242), "c1": int64(0)})
	if err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	r2, _ := db.Begin(ankerdb.OLTP)
	defer r2.Abort()
	if v, err := r2.Get("bench", "c0", row); err != nil || v != 424242 {
		t.Fatalf("post-recovery row = %d, %v", v, err)
	}
}

// stateDump captures the recovered state in row order for equality
// comparison across recoveries.
func stateDump(t *testing.T, db *ankerdb.DB) [][]int64 {
	t.Helper()
	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	var dump [][]int64
	for _, col := range faultCols {
		vals, err := txn.Scan("bench", col)
		if err != nil {
			t.Fatalf("scan %s: %v", col, err)
		}
		dump = append(dump, vals)
	}
	return dump
}

// verifyLoose is the fsync-lie contract: the recovered state is
// internally consistent, every surviving value was actually written
// at some point (or is the initial zero), and recovering twice yields
// the same state.
func verifyLoose(t *testing.T, strat ankerdb.SnapshotStrategy, dir string, fr faultRun) {
	t.Helper()
	db, err := openFaultDB(strat, dir, nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	allVals := map[string]map[int64]bool{}
	for c, vs := range fr.history {
		if allVals[c.Col] == nil {
			allVals[c.Col] = map[int64]bool{}
		}
		for v := range vs {
			allVals[c.Col][v] = true
		}
	}
	dump := stateDump(t, db)
	for i, col := range faultCols {
		for _, v := range dump[i] {
			if v != 0 && !allVals[col][v] {
				t.Fatalf("recovered %s value %d was never written", col, v)
			}
		}
	}
	if len(dump[0]) != len(dump[1]) {
		t.Fatalf("column row counts diverge: %d vs %d", len(dump[0]), len(dump[1]))
	}
	verifyCommitOrder(t, db, fr)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := openFaultDB(strat, dir, nil)
	if err != nil {
		t.Fatalf("second recovery open: %v", err)
	}
	defer db2.Close()
	if dump2 := stateDump(t, db2); !reflect.DeepEqual(dump, dump2) {
		t.Fatalf("second recovery diverged:\n%v\nvs\n%v", dump, dump2)
	}
}

// verifyCommitOrder checks prefix-consistency of the commit order at
// record granularity: the recovered state must be explainable as a
// newer-wins replay of some subsequence of the committed transactions
// in commit order with NO transaction partially applied — if any of a
// transaction's writes survived, none of its cells may show an older
// value. A lying fsync may drop a suffix of each WAL shard, so whole
// records vanish; a record that half-applies is a recovery bug (torn
// tails must be cut at record boundaries).
//
// The check runs over "stable" cells — initial rows never touched by
// an insert or delete — where Get is always defined and the recovered
// value alone identifies the last surviving writer, because the
// generator's value sequence is globally unique.
func verifyCommitOrder(t *testing.T, db *ankerdb.DB, fr faultRun) {
	t.Helper()
	unstable := map[int]bool{}
	mark := func(res *workload.Result) {
		if res == nil {
			return
		}
		for _, r := range res.Inserted {
			unstable[r] = true
		}
		if res.Deleted >= 0 {
			unstable[res.Deleted] = true
		}
	}
	for i := range fr.results {
		mark(&fr.results[i])
	}
	mark(fr.maybeRes)

	// Commit-order position of each written value's transaction; the
	// one in flight at the crash orders after everything committed.
	const inflight = int(^uint(0) >> 1)
	writer := map[int64]int{}
	for i, op := range fr.commits {
		for _, w := range op.Writes {
			writer[w.Val] = i
		}
	}
	if fr.maybeOp != nil {
		for _, w := range fr.maybeOp.Writes {
			writer[w.Val] = inflight
		}
	}

	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	// pos resolves a stable cell to its recovered writer's commit-order
	// position; -1 is the initial zero.
	pos := func(col string, row int) int {
		v, err := txn.Get("bench", col, row)
		if err != nil {
			t.Fatalf("stable row %d unreadable: %v", row, err)
		}
		if v == 0 {
			return -1
		}
		p, ok := writer[v]
		if !ok {
			t.Fatalf("recovered %s[%d] = %d was never written", col, row, v)
		}
		return p
	}
	check := func(i int, op workload.Op) {
		survived := false
		for _, w := range op.Writes {
			if !unstable[w.Row] && pos(w.Col, w.Row) == i {
				survived = true
				break
			}
		}
		if !survived {
			return // the whole record was lost: a legal prefix cut
		}
		for _, w := range op.Writes {
			if unstable[w.Row] {
				continue
			}
			if p := pos(w.Col, w.Row); p < i {
				t.Fatalf("torn transaction at commit-order %d: %s[%d] shows writer %d while a sibling write survived",
					i, w.Col, w.Row, p)
			}
		}
	}
	for i, op := range fr.commits {
		check(i, op)
	}
	if fr.maybeOp != nil {
		check(inflight, *fr.maybeOp)
	}
}

// faultSweepSeeds is the number of seeded schedules the matrix runs per
// strategy: 3 in the regular suite, FAULT_SWEEP_SEEDS when set — the
// widened range `make fault-sweep` and the nightly battery use.
func faultSweepSeeds(t *testing.T) int64 {
	s := os.Getenv("FAULT_SWEEP_SEEDS")
	if s == "" {
		return 3
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("FAULT_SWEEP_SEEDS=%q: %v", s, err)
	}
	return n
}

// TestCrashRecoveryMatrix: seeded fault schedules across every snapshot
// strategy. Each seed derives both the workload stream and the fault
// plan, so a failing (strategy, seed) pair replays exactly.
func TestCrashRecoveryMatrix(t *testing.T) {
	seeds := faultSweepSeeds(t)
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				plan := fault.Schedule(seed, 400)
				t.Logf("seed %d: %v", seed, plan)
				dir := t.TempDir()
				fs := fault.NewScripted(seed, plan)
				fr := runFaultWorkload(t, strat, dir, fs, seed, 200)
				if plan.FsyncLie {
					verifyLoose(t, strat, dir, fr)
				} else {
					verifyExact(t, strat, dir, fr)
				}
			}
		})
	}
}

// TestFsyncLieRecoveryMatrix forces the lying-fsync mode on every
// strategy (the seeded matrix only hits it on a third of schedules).
func TestFsyncLieRecoveryMatrix(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			plan := fault.Plan{CrashAfterOps: 120, Torn: true, FsyncLie: true}
			dir := t.TempDir()
			fs := fault.NewScripted(99, plan)
			fr := runFaultWorkload(t, strat, dir, fs, 99, 200)
			if !fs.Tripped() {
				t.Fatal("workload finished before the crash point; raise maxTxns")
			}
			verifyLoose(t, strat, dir, fr)
		})
	}
}

// TestSeededScheduleReproducible: the same seed yields a byte-identical
// fault trace and an identical recovered state — the property that
// makes a fault-sweep failure a repro recipe rather than an anecdote.
func TestSeededScheduleReproducible(t *testing.T) {
	const seed = 7
	plan := fault.Schedule(seed, 300)
	var traces [2][]string
	var dumps [2][][]int64
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		fs := fault.NewScripted(seed, plan)
		runFaultWorkload(t, ankerdb.VMSnap, dir, fs, seed, 200)
		// Traces embed absolute paths; strip the per-run directory so
		// the comparison sees only the schedule itself.
		for _, line := range fs.Trace() {
			traces[i] = append(traces[i], strings.ReplaceAll(line, dir, ""))
		}
		db, err := openFaultDB(ankerdb.VMSnap, dir, nil)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		dumps[i] = stateDump(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Fatalf("fault traces diverged:\n%v\nvs\n%v", traces[0], traces[1])
	}
	if !reflect.DeepEqual(dumps[0], dumps[1]) {
		t.Fatalf("recovered states diverged")
	}
	if len(traces[0]) == 0 {
		t.Fatal("empty fault trace; the crash never tripped")
	}
}

// crashMidDDL seeds a table, then retries the DDL with the crash point
// swept over every operation index until it completes — after every
// crash, recovery must show the DDL applied entirely or not at all.
func crashMidDDL(t *testing.T, truncate bool) {
	const extra = 6
	seedVals := func(i int) int64 { return int64(1000 + i) }
	sawCrash, completed := false, false
	for k := int64(1); k <= 500 && !completed; k++ {
		dir := t.TempDir()
		db, err := openFaultDB(ankerdb.VMSnap, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra; i++ {
			w, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Insert("bench", map[string]any{"c0": seedVals(i), "c1": int64(0)}); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		fs := fault.NewScripted(k, fault.Plan{CrashAfterOps: k})
		db2, err := openFaultDB(ankerdb.VMSnap, dir, fs)
		var ddlErr error
		if err == nil {
			if truncate {
				ddlErr = db2.Truncate("bench")
			} else {
				ddlErr = db2.DropTable("bench")
			}
			_ = db2.Close()
		} else {
			ddlErr = err
		}
		if fs.Tripped() {
			sawCrash = true
		} else if ddlErr != nil {
			t.Fatalf("k=%d: DDL failed without a crash: %v", k, ddlErr)
		} else {
			completed = true
		}

		// Recover without the initial schema so a durable drop is
		// observable as ErrNoSuchTable instead of being re-created.
		db3, err := ankerdb.Open(
			ankerdb.WithSnapshotStrategy(ankerdb.VMSnap),
			ankerdb.WithCostModel(ankerdb.ZeroCost),
			ankerdb.WithCommitShards(2),
			ankerdb.WithDurability(dir),
		)
		if err != nil {
			t.Fatalf("k=%d: recovery open: %v", k, err)
		}
		txn, err := db3.Begin(ankerdb.OLTP)
		if err != nil {
			t.Fatal(err)
		}
		vals, scanErr := txn.Scan("bench", "c0")
		switch {
		case scanErr == nil && len(vals) == faultRows+extra:
			// DDL not applied: every seeded value must be intact.
			var sum, want int64
			for _, v := range vals {
				sum += v
			}
			for i := 0; i < extra; i++ {
				want += seedVals(i)
			}
			if sum != want {
				t.Fatalf("k=%d: surviving table sum = %d, want %d", k, sum, want)
			}
		case !truncate && errors.Is(scanErr, ankerdb.ErrNoSuchTable):
			// Drop applied: the name must be reusable.
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			txn = nil
			if err := db3.CreateTable(faultSchema(), 4); err != nil {
				t.Fatalf("k=%d: re-create after recovered drop: %v", k, err)
			}
		case truncate && scanErr == nil && len(vals) == 0:
			// Truncate applied: inserts must land again.
			w, err := db3.Begin(ankerdb.OLTP)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Insert("bench", map[string]any{"c0": int64(1), "c1": int64(2)}); err != nil {
				t.Fatalf("k=%d: insert after recovered truncate: %v", k, err)
			}
			if err := w.Commit(); err != nil {
				t.Fatalf("k=%d: commit after recovered truncate: %v", k, err)
			}
		default:
			t.Fatalf("k=%d: partial DDL state after crash: rows=%d err=%v\ntrace:\n%s",
				k, len(vals), scanErr, strings.Join(fs.Trace(), "\n"))
		}
		if txn != nil {
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db3.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawCrash || !completed {
		t.Fatalf("sweep ended with sawCrash=%v completed=%v", sawCrash, completed)
	}
}

func TestCrashMidDropTable(t *testing.T) { crashMidDDL(t, false) }

func TestCrashMidTruncate(t *testing.T) { crashMidDDL(t, true) }
