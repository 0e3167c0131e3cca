package ankerdb_test

// Count gates: the numbers a transaction produces that repeat exactly
// on any host — heap allocations per transaction, WAL bytes per
// commit record, blocks an index-routed query reads, simulated kernel
// events per snapshot and commit, request frames per remote
// transaction and stream frames per replicated commit. Timing is the
// benchmark's job (benchmark/, alternated parent/change pairs); these
// are tier-1, so one more allocation on a hot path fails go test.
//
// The allocation bounds are the counts testing.AllocsPerRun reads at
// 3e9ac5f under go1.24.0 (identical over five runs). AllocsPerRun pins
// GOMAXPROCS to 1 and counts the whole process, server goroutines
// included, so a bound covers every layer the transaction crosses; its
// 1000 runs amortise a fresh database's one-off growth (at 100 the
// commit reads 28). The race detector's instrumentation allocates on
// its own, so the allocation gates skip under -race (raceEnabled,
// race_test.go).

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ankerdb"
	"ankerdb/internal/repl"
)

// allocGate fails when fn allocates more than bound times per run.
func allocGate(t *testing.T, bound float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates; allocation counts are gated without -race")
	}
	got := testing.AllocsPerRun(1000, fn)
	if got > bound {
		t.Fatalf("%v allocations per transaction, gate %v", got, bound)
	}
	t.Logf("%v allocations per transaction, gate %v", got, bound)
}

// write8 is BenchmarkCommit's transaction: eight writes into one
// column at the rows next returns, committed.
func write8(t *testing.T, db *ankerdb.DB, next func() int) {
	t.Helper()
	w, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if err := w.Set("bench", "c0", next(), int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitAllocGate(t *testing.T) {
	for _, c := range []struct {
		shards int
		bound  float64
	}{{1, 26}, {2, 27}} {
		t.Run(fmt.Sprintf("shards=%d", c.shards), func(t *testing.T) {
			db := openBenchDB(t, c.shards)
			defer db.Close()
			rnd := rand.New(rand.NewSource(1))
			next := func() int { return rnd.Intn(benchRows) }
			allocGate(t, c.bound, func() { write8(t, db, next) })
		})
	}
}

// TestOLAPSumAllocGate: BenchmarkOLAPScan's transaction (61 allocations
// there, at GOMAXPROCS morsel workers; 48 here, at AllocsPerRun's one).
func TestOLAPSumAllocGate(t *testing.T) {
	db := openBenchDB(t, 1, ankerdb.WithSnapshotRefresh(16))
	defer db.Close()
	allocGate(t, 45, func() {
		r, err := db.Begin(ankerdb.OLAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Aggregate("bench", "c0", ankerdb.Sum); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// remoteTxn4x4 is BenchmarkRemoteTransfer's transaction: Begin, 4 Gets,
// 4 Sets, Commit, over the same four cells every time.
func remoteTxn4x4(t *testing.T, s ankerdb.Session) {
	t.Helper()
	tx, err := s.BeginTxn(ankerdb.OLTP)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		col, row := fmt.Sprintf("c%d", k), k
		v, err := tx.Get("bench", col, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Set("bench", col, row, v+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// openServingBenchDB opens the bench table as a durable SyncNone
// serving primary.
func openServingBenchDB(t *testing.T) *ankerdb.DB {
	return openBenchDB(t, 1, ankerdb.WithDurability(t.TempDir()),
		ankerdb.WithSyncPolicy(ankerdb.SyncNone), ankerdb.WithServeAddr("127.0.0.1:0"))
}

// TestRemoteTxnAllocGate: remoteTxn4x4 through Dial against a durable
// SyncNone primary — client and server sides together, plus the loop's
// four column-name Sprintfs.
func TestRemoteTxnAllocGate(t *testing.T) {
	db := openServingBenchDB(t)
	defer db.Close()
	s, err := ankerdb.Dial(db.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocGate(t, 112, func() { remoteTxn4x4(t, s) })
}

// requestCounter relays one connection to target and counts the session
// request frames (MsgRequest) the client sends through it.
type requestCounter struct {
	ln       net.Listener
	requests atomic.Int64
}

func newRequestCounter(t *testing.T, target string) *requestCounter {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	p := &requestCounter{ln: ln}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", target)
		if err != nil {
			_ = c.Close()
			return
		}
		go func() { _, _ = io.Copy(c, s); _ = c.Close() }()
		in, out := repl.NewConn(c), repl.NewConn(s)
		for {
			typ, payload, err := in.ReadMsg()
			if err != nil {
				break
			}
			if typ == repl.MsgRequest {
				p.requests.Add(1)
			}
			if out.Send(typ, payload) != nil {
				break
			}
		}
		_ = s.Close()
	}()
	return p
}

// TestRemoteTxnRoundTripGate: remoteTxn4x4 sends one request per
// operation — Begin, 4 Gets, 4 Sets, Commit — and so waits on exactly
// 10 round trips.
func TestRemoteTxnRoundTripGate(t *testing.T) {
	db := openServingBenchDB(t)
	defer db.Close()
	p := newRequestCounter(t, db.ServeAddr())
	s, err := ankerdb.Dial(p.ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		before := p.requests.Load()
		remoteTxn4x4(t, s)
		if got := p.requests.Load() - before; got != 10 {
			t.Fatalf("txn %d sent %d requests, want 10", i, got)
		}
	}
}

// TestReplFramesPerCommitGate: each single-shard commit on a serving
// primary streams exactly one frame to its replica, which applies
// exactly one.
func TestReplFramesPerCommitGate(t *testing.T) {
	const n = 16
	p := openServingBenchDB(t)
	defer p.Close()
	r, err := ankerdb.Open(ankerdb.WithCostModel(ankerdb.ZeroCost), ankerdb.WithReplicaOf(p.ServeAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	caughtUp := func() (ankerdb.Stats, ankerdb.Stats) {
		t.Helper()
		ps := p.Stats()
		deadline := time.Now().Add(10 * time.Second)
		for {
			rs := r.Stats()
			if rs.CompletedCommitTS >= ps.CompletedCommitTS {
				return ps, rs
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica at commit %d, primary at %d", rs.CompletedCommitTS, ps.CompletedCommitTS)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pb, rb := caughtUp()
	row := 0
	for i := 0; i < n; i++ {
		write8(t, p, func() int { row++; return row })
	}
	pa, ra := caughtUp()
	if got := pa.ReplFramesStreamed - pb.ReplFramesStreamed; got != n {
		t.Errorf("primary streamed %d frames for %d commits", got, n)
	}
	if got := ra.ReplicaFrames - rb.ReplicaFrames; got != n {
		t.Errorf("replica applied %d frames for %d commits", got, n)
	}
}

// TestWALBytesPerTxn: a commit of 8 int64 writes to distinct rows logs
// exactly one frame — 8-byte frame header, 13-byte record header (kind,
// commit TS, write count), 21 bytes per write (table, column, row,
// value, string flag).
func TestWALBytesPerTxn(t *testing.T) {
	const want = 8 + 13 + 8*21
	db := openBenchDB(t, 1, ankerdb.WithDurability(t.TempDir()), ankerdb.WithSyncPolicy(ankerdb.SyncNone))
	defer db.Close()
	row := 0
	next := func() int { row++; return row }
	for i := 0; i < 16; i++ {
		before := db.Stats().WALBytes
		write8(t, db, next)
		if got := db.Stats().WALBytes - before; got != want {
			t.Fatalf("txn %d logged %d WAL bytes, want %d", i, got, want)
		}
	}
}

// TestVMSnapKernelWorkGate: the simulated kernel work of the paper's
// engine path under VMSnap, as exact vmem counts. An OLAP Sum in a fresh
// generation snapshots c0's two regions — its values and their write
// timestamps — with one vm_snapshot call each: one kernel entry and one
// VMA copied per region, nothing split or merged. An 8-write commit to
// 8 distinct pages then enters the kernel only through faults: the
// first store to each value page and to its timestamp page breaks COW
// against the pinned snapshot. Counts, not allocations, so this runs
// under -race too.
func TestVMSnapKernelWorkGate(t *testing.T) {
	db := openBenchDB(t, 1, ankerdb.WithCostModel(ankerdb.DefaultCost))
	defer db.Close()
	type kernelWork struct{ syscalls, vmSnapshots, vmaOps, cowBreaks uint64 }
	step := func(name string, want kernelWork, fn func()) {
		t.Helper()
		b := db.Stats().VM
		fn()
		s := db.Stats()
		a := s.VM
		got := kernelWork{a.Syscalls - b.Syscalls, a.VMSnapshots - b.VMSnapshots, a.VMAOps - b.VMAOps, a.COWBreaks - b.COWBreaks}
		if got != want {
			t.Fatalf("%s: syscalls, vm_snapshots, VMA ops, COW breaks = %+v, want %+v", name, got, want)
		}
		if s.SimKernelTime != a.SimTime(ankerdb.DefaultCost) {
			t.Fatalf("%s: SimKernelTime %v, VM.SimTime(DefaultCost) %v", name, s.SimKernelTime, a.SimTime(ankerdb.DefaultCost))
		}
	}
	step("OLAP Sum over c0", kernelWork{syscalls: 2, vmSnapshots: 2, vmaOps: 2}, func() {
		r, err := db.Begin(ankerdb.OLAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Aggregate("bench", "c0", ankerdb.Sum); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	const pageRows = 4096 / 8
	row := -pageRows
	step("8-write commit", kernelWork{cowBreaks: 16}, func() {
		write8(t, db, func() int { row += pageRows; return row })
	})
}

// TestIndexRoutedEqScansNoBlocks: a 0.1%-selective Eq on a hash-indexed
// column reads its 64 matches through the index and no block, although
// every block holds every value (so zone maps cannot prune).
func TestIndexRoutedEqScansNoBlocks(t *testing.T) {
	const rows, values = 1 << 16, 1 << 10
	db, err := ankerdb.Open(ankerdb.WithCostModel(ankerdb.ZeroCost),
		ankerdb.WithInitialSchema(ankerdb.NewSchema("bench").Int64("v").Indexed(ankerdb.Hash).Build(), rows))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cycle := make([]int64, rows)
	for i := range cycle {
		cycle[i] = int64(i % values)
	}
	if err := db.Load("bench", "v", cycle); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("bench").Where(ankerdb.Eq("v", 7)).Select(ankerdb.RowID).Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !st.IndexRouted || st.BlocksScanned != 0 || st.RowsScanned != rows/values || res.Len() != rows/values {
		t.Fatalf("routed=%v blocks=%d rows scanned=%d result=%d, want routed, 0 blocks, %d rows",
			st.IndexRouted, st.BlocksScanned, st.RowsScanned, res.Len(), rows/values)
	}
}
