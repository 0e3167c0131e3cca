package ankerdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// waitReplicaTS polls until db's completed watermark reaches ts.
func waitReplicaTS(t *testing.T, db *DB, ts uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.oracle.Completed() < ts {
		if time.Now().After(deadline) {
			st := db.Stats()
			t.Fatalf("replica stuck: completed %d, applied %d, source %d, want %d",
				st.CompletedCommitTS, st.ReplicaAppliedTS, st.ReplicaSourceTS, ts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func openPrimary(t *testing.T, opts ...Option) *DB {
	t.Helper()
	base := []Option{
		WithCostModel(ZeroCost),
		WithDurability(t.TempDir()),
		WithSyncPolicy(SyncNone),
		WithServeAddr("127.0.0.1:0"),
	}
	db, err := Open(append(base, opts...)...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func openReplicaOf(t *testing.T, addr string, opts ...Option) *DB {
	t.Helper()
	base := []Option{WithCostModel(ZeroCost), WithReplicaOf(addr)}
	db, err := Open(append(base, opts...)...)
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func commitWrite(t *testing.T, db *DB, tab, col string, row int, v int64) uint64 {
	t.Helper()
	tx, err := db.Begin(OLTP)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := tx.Set(tab, col, row, v); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return db.oracle.Completed()
}

func olapGet(t *testing.T, db *DB, tab, col string, row int) int64 {
	t.Helper()
	tx, err := db.Begin(OLAP)
	if err != nil {
		t.Fatalf("olap begin: %v", err)
	}
	defer tx.Abort()
	v, err := tx.Get(tab, col, row)
	if err != nil {
		t.Fatalf("olap get: %v", err)
	}
	return v
}

// TestReplicationStreamsWrites is the core contract: commits on the
// primary (updates, inserts, deletes) appear on a bootstrapped replica
// at its reported watermark, and a second replica without its own
// durability behaves identically.
func TestReplicationStreamsWrites(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Varchar("s").Build(), 64))
	commitWrite(t, p, "kv", "v", 0, 7) // pre-bootstrap state

	durable := openReplicaOf(t, p.ServeAddr(), WithDurability(t.TempDir()), WithSyncPolicy(SyncNone))
	memOnly := openReplicaOf(t, p.ServeAddr())

	if got := olapGet(t, durable, "kv", "v", 0); got != 7 {
		t.Fatalf("bootstrapped value = %d, want 7", got)
	}

	// Live stream: update, string write, insert, delete.
	commitWrite(t, p, "kv", "v", 1, 11)
	tx, _ := p.Begin(OLTP)
	if err := tx.SetString("kv", "s", 2, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = p.Begin(OLTP)
	row, err := tx.Insert("kv", map[string]any{"v": int64(99), "s": "born"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = p.Begin(OLTP)
	if err := tx.Delete("kv", 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	target := p.oracle.Completed()

	for name, r := range map[string]*DB{"durable": durable, "memory": memOnly} {
		waitReplicaTS(t, r, target)
		if got := olapGet(t, r, "kv", "v", 1); got != 11 {
			t.Errorf("%s: v[1] = %d, want 11", name, got)
		}
		if got := olapGet(t, r, "kv", "v", row); got != 99 {
			t.Errorf("%s: inserted v[%d] = %d, want 99", name, row, got)
		}
		rtx, _ := r.Begin(OLAP)
		if s, err := rtx.GetString("kv", "s", 2); err != nil || s != "hello" {
			t.Errorf("%s: s[2] = %q, %v; want hello", name, s, err)
		}
		if _, err := rtx.Get("kv", "v", 3); !errors.Is(err, ErrRowNotVisible) {
			t.Errorf("%s: deleted row readable: %v", name, err)
		}
		n, err := rtx.Aggregate("kv", "v", Count)
		if err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		ptx, _ := p.Begin(OLAP)
		want, _ := ptx.Aggregate("kv", "v", Count)
		ptx.Abort()
		if n != want {
			t.Errorf("%s: visible rows = %d, primary has %d", name, n, want)
		}
		rtx.Abort()

		st := r.Stats()
		if !st.Replica || st.Promoted {
			t.Errorf("%s: stats role: replica=%v promoted=%v", name, st.Replica, st.Promoted)
		}
		if !st.ReplicaConnected || st.ReplicaAppliedTS < target {
			t.Errorf("%s: stats health: connected=%v applied=%d (target %d)",
				name, st.ReplicaConnected, st.ReplicaAppliedTS, target)
		}
	}

	pst := p.Stats()
	if pst.ConnectedReplicas != 2 {
		t.Errorf("primary ConnectedReplicas = %d, want 2", pst.ConnectedReplicas)
	}
	if pst.ReplFramesStreamed == 0 || !pst.Serving {
		t.Errorf("primary stream stats: frames=%d serving=%v", pst.ReplFramesStreamed, pst.Serving)
	}
}

// TestReplicationStreamsDDL covers schema records over the live
// stream: table creation, index DDL, truncate and drop all mirror on
// the replica exactly once despite the bootstrap overlap.
func TestReplicationStreamsDDL(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("a").Int64("x").Build(), 16))
	r := openReplicaOf(t, p.ServeAddr())

	if err := p.CreateTable(NewSchema("b").Int64("y").Build(), 8); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateIndex("b", "y", Hash); err != nil {
		t.Fatal(err)
	}
	ts := commitWrite(t, p, "b", "y", 2, 42)
	waitReplicaTS(t, r, ts)

	rtx, err := r.Begin(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := rtx.Lookup("b", "y", 42); err != nil || len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("replica index lookup = %v, %v; want [2]", rows, err)
	}
	rtx.Abort()

	// Truncate then repopulate; then drop a different table.
	if err := p.Truncate("b"); err != nil {
		t.Fatal(err)
	}
	for _, y := range []int64{5, 6} {
		tx, _ := p.Begin(OLTP)
		if _, err := tx.Insert("b", map[string]any{"y": y}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	// A trailing commit gives the replica a watermark past the drop.
	ts = commitWrite(t, p, "b", "y", 0, 7)
	waitReplicaTS(t, r, ts)

	rtx, _ = r.Begin(OLAP)
	n, err := rtx.Aggregate("b", "y", Count)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // the repopulated row + row 0 written above
		t.Errorf("post-truncate visible rows = %d, want 2", n)
	}
	if _, err := rtx.Scan("a", "x"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("dropped table still scannable: %v", err)
	}
	rtx.Abort()
}

// TestReplicationStreamsLoad: bulk loads stream as load records and
// land on wts-zero rows only.
func TestReplicationStreamsLoad(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("l").Int64("v").Build(), 32))
	r := openReplicaOf(t, p.ServeAddr())

	vals := make([]int64, 32)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	if err := p.Load("l", "v", vals); err != nil {
		t.Fatal(err)
	}
	// A commit after the load gives the replica a watermark to converge on.
	ts := commitWrite(t, p, "l", "v", 0, 1000)
	waitReplicaTS(t, r, ts)

	if got := olapGet(t, r, "l", "v", 10); got != 30 {
		t.Errorf("loaded v[10] = %d, want 30", got)
	}
	if got := olapGet(t, r, "l", "v", 0); got != 1000 {
		t.Errorf("committed-over-load v[0] = %d, want 1000", got)
	}
}

// TestReplicaRejectsWrites: every local mutation path returns
// ErrReplicaRead until promotion; OLAP reads keep working.
func TestReplicaRejectsWrites(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	r := openReplicaOf(t, p.ServeAddr())

	if _, err := r.Begin(OLTP); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Begin(OLTP) = %v, want ErrReplicaRead", err)
	}
	if err := r.CreateTable(NewSchema("x").Int64("a").Build(), 4); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("CreateTable = %v, want ErrReplicaRead", err)
	}
	if err := r.DropTable("kv"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("DropTable = %v, want ErrReplicaRead", err)
	}
	if err := r.Truncate("kv"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Truncate = %v, want ErrReplicaRead", err)
	}
	if err := r.CreateIndex("kv", "v", Hash); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("CreateIndex = %v, want ErrReplicaRead", err)
	}
	if err := r.DropIndex("kv", "v"); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("DropIndex = %v, want ErrReplicaRead", err)
	}
	if err := r.Load("kv", "v", []int64{1}); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("Load = %v, want ErrReplicaRead", err)
	}
	if err := r.LoadStrings("kv", "v", []string{"a"}); !errors.Is(err, ErrReplicaRead) {
		t.Errorf("LoadStrings = %v, want ErrReplicaRead", err)
	}
	if _, err := r.Begin(OLAP); err != nil {
		t.Errorf("Begin(OLAP) on replica failed: %v", err)
	}
	if err := r.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := r.Begin(OLTP); err != nil {
		t.Errorf("Begin(OLTP) after Promote failed: %v", err)
	}
}

// TestReplicaRestartRebootstraps: a durable replica closed and
// reopened against the primary re-bootstraps (fast-forward) and
// converges on writes it missed while down.
func TestReplicaRestartRebootstraps(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	dir := t.TempDir()

	r, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone), WithReplicaOf(p.ServeAddr()))
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	ts := commitWrite(t, p, "kv", "v", 0, 1)
	waitReplicaTS(t, r, ts)
	if err := r.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}

	// Writes while the replica is down.
	commitWrite(t, p, "kv", "v", 0, 2)
	ts = commitWrite(t, p, "kv", "v", 1, 3)

	r2, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone), WithReplicaOf(p.ServeAddr()))
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer r2.Close()
	waitReplicaTS(t, r2, ts)
	if got := olapGet(t, r2, "kv", "v", 0); got != 2 {
		t.Errorf("v[0] = %d after restart, want 2", got)
	}
	if got := olapGet(t, r2, "kv", "v", 1); got != 3 {
		t.Errorf("v[1] = %d after restart, want 3", got)
	}
	if r2.Stats().ReplicaBootstraps == 0 {
		t.Error("reopened replica did not bootstrap")
	}
}

// TestReplicaAutoCheckpointBoundsWAL: a durable replica's size trigger
// fires from the stream frames it applies, so while the primary commits
// 3N more after the first N, the replica's directory grows by no more
// than a constant. The WAL it keeps is the active segment (under one
// threshold) and the segment the last checkpoint sealed: one threshold
// plus the records applied while that checkpoint ran, which lie above
// its timestamp and keep the segment on disk until the next one. The
// third threshold is room for those records. Reopened on its own, the
// directory reads what the primary committed.
func TestReplicaAutoCheckpointBoundsWAL(t *testing.T) {
	const n, threshold, rows = 4000, 64 << 10, 64
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), rows))
	dir := t.TempDir()
	r := openReplicaOf(t, p.ServeAddr(), WithDurability(dir), WithSyncPolicy(SyncNone), WithAutoCheckpoint(threshold, 0))
	commit := func(from, to int) {
		var ts uint64
		for i := from; i < to; i++ {
			ts = commitWrite(t, p, "kv", "v", i%rows, int64(i))
		}
		waitReplicaTS(t, r, ts)
	}
	// Sized between checkpoints, never while one swaps files.
	size := func() int64 {
		r.ckptMu.Lock()
		defer r.ckptMu.Unlock()
		return dirBytes(t, dir)
	}
	commit(0, n)
	afterN := size()
	commit(n, 4*n)
	// The last threshold crossing checkpoints in the background.
	deadline := time.Now().Add(10 * time.Second)
	for got := size(); got > afterN+3*threshold; got = size() {
		if time.Now().After(deadline) {
			t.Fatalf("replica directory holds %d bytes after %d commits and %d after %d, want <= %d + 3×%d (%d auto checkpoints)",
				afterN, n, got, 4*n, afterN, threshold, r.Stats().AutoCheckpointCount)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r.Stats().AutoCheckpointCount == 0 {
		t.Fatal("replica ran no auto checkpoint")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}

	reopened, err := Open(WithCostModel(ZeroCost), WithDurability(dir), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatalf("reopen replica directory: %v", err)
	}
	defer reopened.Close()
	scan := func(db *DB) []int64 {
		tx, err := db.Begin(OLAP)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		vs, err := tx.Scan("kv", "v")
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	if got, want := scan(reopened), scan(p); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened replica reads %v, primary %v", got, want)
	}
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRemoteSession: the networked Session surface against a served
// primary — full op coverage, sentinel-error fidelity across the wire,
// and the session-vs-embedded interchangeability the interface
// promises.
func TestRemoteSession(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Varchar("s").Build(), 16))

	var sess Session
	sess, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sess.Close()

	tx, err := sess.BeginTxn(OLTP)
	if err != nil {
		t.Fatalf("remote begin: %v", err)
	}
	if tx.Class() != OLTP {
		t.Errorf("Class = %v", tx.Class())
	}
	if err := tx.Set("kv", "v", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetString("kv", "s", 1, "one"); err != nil {
		t.Fatal(err)
	}
	row, err := tx.Insert("kv", map[string]any{"v": 77, "s": "ins"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("kv", 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("remote commit: %v", err)
	}

	rd, err := sess.BeginTxn(OLAP)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rd.Get("kv", "v", 1); err != nil || v != 10 {
		t.Errorf("Get = %d, %v", v, err)
	}
	if s, err := rd.GetString("kv", "s", 1); err != nil || s != "one" {
		t.Errorf("GetString = %q, %v", s, err)
	}
	if v, err := rd.Get("kv", "v", row); err != nil || v != 77 {
		t.Errorf("inserted Get = %d, %v", v, err)
	}
	if vals, err := rd.Scan("kv", "v"); err != nil || len(vals) == 0 {
		t.Errorf("Scan = %d vals, %v", len(vals), err)
	}
	if _, err := rd.Filter("kv", "v", 10, 10); err != nil {
		t.Errorf("Filter: %v", err)
	}
	if _, err := rd.Lookup("kv", "v", 10); err != nil {
		t.Errorf("Lookup: %v", err)
	}
	if n, err := rd.Aggregate("kv", "v", Count); err != nil || n == 0 {
		t.Errorf("Aggregate Count = %d, %v", n, err)
	}

	// Sentinel fidelity across the wire.
	if _, err := rd.Get("nope", "v", 0); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("unknown table error = %v, want ErrNoSuchTable", err)
	}
	if _, err := rd.Get("kv", "nope", 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("unknown column error = %v, want ErrNoSuchColumn", err)
	}
	if _, err := rd.Get("kv", "v", 2); !errors.Is(err, ErrRowNotVisible) || !errors.Is(err, ErrRowRange) {
		t.Errorf("deleted row error = %v, want ErrRowNotVisible (and ErrRowRange alias)", err)
	}
	if err := rd.Set("kv", "v", 0, 1); !errors.Is(err, ErrReadOnly) {
		t.Errorf("OLAP write error = %v, want ErrReadOnly", err)
	}
	if msg := fmt.Sprint(rd.Set("kv", "v", 0, 1)); !strings.Contains(msg, "read-only") {
		t.Errorf("remote error lost its message: %q", msg)
	}
	if err := rd.Abort(); err != nil {
		t.Fatal(err)
	}

	// Stats over the wire carry the replication surface.
	if st := sess.Stats(); !st.Serving || st.Strategy == "" {
		t.Errorf("remote Stats = serving:%v strategy:%q", st.Serving, st.Strategy)
	}

	// Unknown namespace refused at handshake.
	if _, err := Dial(p.ServeAddr(), "ghost"); err == nil || !strings.Contains(err.Error(), "namespace") {
		t.Errorf("ghost namespace dial = %v", err)
	}
}

// TestRemoteSessionAdmission: the WithServeMaxSessions cap refuses the
// excess dial with a wire-coded ErrTooManySessions.
func TestRemoteSessionAdmission(t *testing.T) {
	p := openPrimary(t,
		WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
		WithServeMaxSessions(2))

	s1, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	s3, err := Dial(p.ServeAddr(), "")
	if err == nil {
		// The refusal races the dial's first read; force a round trip.
		_, err = s3.BeginTxn(OLAP)
		s3.Close()
	}
	if !errors.Is(err, ErrTooManySessions) {
		t.Errorf("third dial = %v, want ErrTooManySessions", err)
	}

	// Slots free on close: a new session is admitted.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s4, err := Dial(p.ServeAddr(), "")
		if err == nil {
			if _, err = s4.BeginTxn(OLAP); err == nil {
				s4.Close()
				break
			}
			s4.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationChained: two durable serving replicas of one primary
// and a second-tier replica fed by one of them (its own schema log
// being a byte-exact prefix of the primary's makes the chain sound)
// follow a seeded insert/update/delete workload with a mid-stream index
// build while a reader queries a replica. ReplicasMatchPrimary (the deleted
// replication smoke binary's checks) then asserts every replica's scans — and a remote
// session dialled to a serving replica — equal the primary's, and that
// the primary reports both direct replicas and their lag acks.
func TestReplicationChained(t *testing.T) {
	const rows, txns = 64, 300
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("k").Int64("v").Varchar("tag").Build(), rows))
	serving := func() *DB {
		return openReplicaOf(t, p.ServeAddr(),
			WithDurability(t.TempDir()), WithSyncPolicy(SyncNone), WithServeAddr("127.0.0.1:0"))
	}
	mid, side := serving(), serving()
	leaf := openReplicaOf(t, mid.ServeAddr())

	stop, readErr := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readErr <- nil
				return
			default:
			}
			tx, err := side.Begin(OLAP)
			if err == nil {
				_, err = tx.Aggregate("kv", "v", Sum)
				_ = tx.Abort()
			}
			if err != nil {
				readErr <- err
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(1))
	live := make([]int, rows)
	for i := range live {
		live[i] = i
	}
	for i := 0; i < txns; i++ {
		if i == txns/2 {
			if err := p.CreateIndex("kv", "v", Hash); err != nil {
				t.Fatal(err)
			}
		}
		tx, err := p.Begin(OLTP)
		if err != nil {
			t.Fatal(err)
		}
		switch op := rng.Intn(10); {
		case op < 5:
			err = tx.Set("kv", "v", live[rng.Intn(len(live))], rng.Int63n(1<<20))
		case op < 8:
			var row int
			row, err = tx.Insert("kv", map[string]any{"k": int64(rows + i), "v": rng.Int63n(1 << 20), "tag": fmt.Sprintf("t%d", i%97)})
			live = append(live, row)
		case len(live) > 16:
			j := rng.Intn(len(live))
			err = tx.Delete("kv", live[j])
			live = append(live[:j], live[j+1:]...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	ts := commitWrite(t, p, "kv", "v", live[0], 33)
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatalf("replica read during the stream: %v", err)
	}
	for _, r := range []*DB{mid, side, leaf} {
		waitReplicaTS(t, r, ts)
	}
	if got := olapGet(t, leaf, "kv", "v", live[0]); got != 33 {
		t.Errorf("chained v[%d] = %d, want 33", live[0], got)
	}

	t.Run("ReplicasMatchPrimary", func(t *testing.T) {
		summary := func(tx SessionTxn) string {
			t.Helper()
			defer tx.Abort()
			var out []int64
			for _, q := range []struct {
				col string
				agg Agg
			}{{"k", Count}, {"k", Sum}, {"v", Sum}} {
				v, err := tx.Aggregate("kv", q.col, q.agg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
			return fmt.Sprint(out)
		}
		begin := func(s Session) SessionTxn {
			t.Helper()
			tx, err := s.BeginTxn(OLAP)
			if err != nil {
				t.Fatal(err)
			}
			return tx
		}
		want := summary(begin(p))
		for name, r := range map[string]*DB{"mid": mid, "side": side, "leaf": leaf} {
			if got := summary(begin(r)); got != want {
				t.Errorf("%s replica [rows sumK sumV] = %s, primary %s", name, got, want)
			}
		}
		sess, err := Dial(mid.ServeAddr(), "")
		if err != nil {
			t.Fatalf("dial serving replica: %v", err)
		}
		defer sess.Close()
		if got := summary(begin(sess)); got != want {
			t.Errorf("remote session on a replica [rows sumK sumV] = %s, primary %s", got, want)
		}

		deadline := time.Now().Add(10 * time.Second)
		for p.Stats().ReplicaLagHist.Count == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if st := p.Stats(); st.ConnectedReplicas != 2 || st.ReplicaLagHist.Count == 0 {
			t.Errorf("primary: %d connected replicas, %d lag acks; want 2 and some", st.ConnectedReplicas, st.ReplicaLagHist.Count)
		}
	})
}

// TestReplicaWALMatchesPrimary: a commit or load record is encoded
// once, by the primary's WAL, and a durable replica and a durable
// replica chained behind it log the bytes they received. After a kind-1
// commit, a VARCHAR write, a kind-3 insert/delete commit, a Load and a
// LoadStrings chunk, every commit payload in the three directories'
// segments is byte-identical under its timestamp, and each replica
// holds every load chunk the primary logged.
func TestReplicaWALMatchesPrimary(t *testing.T) {
	const rows = 64
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	p := openPrimary(t, WithDurability(dirs[0]), WithInitialSchema(NewSchema("kv").Int64("v").Varchar("s").Build(), rows))
	durable := func(dir string) []Option {
		return []Option{WithDurability(dir), WithSyncPolicy(SyncNone), WithServeAddr("127.0.0.1:0")}
	}
	mid := openReplicaOf(t, p.ServeAddr(), durable(dirs[1])...)
	leaf := openReplicaOf(t, mid.ServeAddr(), durable(dirs[2])...)

	commitWrite(t, p, "kv", "v", 1, 11)
	tx, err := p.Begin(OLTP)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetString("kv", "s", 2, "varchar"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx, err = p.Begin(OLTP); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("kv", map[string]any{"v": int64(7), "s": "born"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("kv", 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Load("kv", "v", []int64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStrings("kv", "s", []string{"a", "", "ccc"}); err != nil {
		t.Fatal(err)
	}
	ts := commitWrite(t, p, "kv", "v", 4, 44) // streamed after the loads
	waitReplicaTS(t, mid, ts)
	waitReplicaTS(t, leaf, ts)
	for _, db := range []*DB{leaf, mid, p} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	want, wantLoads := walPayloads(t, dirs[0])
	if len(want) != 4 || len(wantLoads) != 2 {
		t.Fatalf("primary logged %d commits and %d load chunks, want 4 and 2", len(want), len(wantLoads))
	}
	for i, name := range []string{"replica", "chained replica"} {
		got, loads := walPayloads(t, dirs[i+1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s logged commits %x, primary %x", name, got, want)
		}
		if !slices.Equal(loads, wantLoads) {
			t.Errorf("%s logged load chunks %x, primary %x", name, loads, wantLoads)
		}
	}
}

// walPayloads reads the record payloads framed in dir's shard segments:
// commit records by commit timestamp, and load chunks sorted.
func walPayloads(t *testing.T, dir string) (commits map[uint64][]byte, loads []string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	commits = map[uint64][]byte{}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for b = b[min(len(b), 8):]; len(b) > 0; { // past the segment header
			n := 8 // header length, then the whole frame's
			if len(b) >= n {
				n += int(binary.LittleEndian.Uint32(b))
			}
			if n <= 8 || n > len(b) {
				t.Fatalf("%s: torn or empty frame", seg)
			}
			payload := b[8:n]
			b = b[n:]
			if payload[0] == 2 { // load chunk
				loads = append(loads, string(payload))
				continue
			}
			ts := binary.LittleEndian.Uint64(payload[1:])
			if _, dup := commits[ts]; dup {
				t.Fatalf("%s: commit %d logged twice", dir, ts)
			}
			commits[ts] = payload
		}
	}
	slices.Sort(loads)
	return commits, loads
}

// TestSessionEmbeddedDB: the embedded *DB satisfies the same Session
// interface the remote client does, so code written against Session
// runs unchanged in-process.
func TestSessionEmbeddedDB(t *testing.T) {
	db, err := Open(
		WithCostModel(ZeroCost),
		WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
	)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var s Session = db
	defer s.Close()

	w, err := s.BeginTxn(OLTP)
	if err != nil {
		t.Fatalf("embedded BeginTxn(OLTP): %v", err)
	}
	if err := w.Set("kv", "v", 2, 42); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	r, err := s.BeginTxn(OLAP)
	if err != nil {
		t.Fatalf("embedded BeginTxn(OLAP): %v", err)
	}
	if got, err := r.Get("kv", "v", 2); err != nil || got != 42 {
		t.Fatalf("get = %d, %v; want 42", got, err)
	}
	if r.SnapshotTS() == 0 {
		t.Fatal("embedded OLAP SnapshotTS = 0")
	}
	if err := r.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if st := s.Stats(); st.Strategy == "" {
		t.Fatal("embedded Stats missing strategy")
	}
}

// TestSessionFinishedTxnParity: a finished transaction answers the same
// through the embedded *DB and through Dial — each step's error matches
// the same sentinel under errors.Is (or is nil on both sides), as
// Session's "runs unchanged" promise requires.
func TestSessionFinishedTxnParity(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	remote, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for _, side := range []struct {
		name string
		s    Session
	}{{"embedded", p}, {"remote", remote}} {
		t.Run(side.name, func(t *testing.T) {
			begin := func() SessionTxn {
				t.Helper()
				tx, err := side.s.BeginTxn(OLTP)
				if err != nil {
					t.Fatal(err)
				}
				return tx
			}
			step := func(what string, err, want error) {
				t.Helper()
				if (want == nil) != (err == nil) || !errors.Is(err, want) {
					t.Errorf("%s: %v, want %v", what, err, want)
				}
			}
			tx := begin()
			step("Set", tx.Set("kv", "v", 0, 1), nil)
			step("Commit", tx.Commit(), nil)
			step("Abort after Commit", tx.Abort(), ErrTxnDone)
			_, err := tx.Get("kv", "v", 0)
			step("Get after Commit", err, ErrTxnDone)

			tx = begin()
			step("Abort", tx.Abort(), nil)
			step("Commit after Abort", tx.Commit(), ErrTxnDone)

			// Both read then write row 1: the second commit conflicts.
			a, b := begin(), begin()
			for _, x := range []SessionTxn{a, b} {
				_, err := x.Get("kv", "v", 1)
				step("Get", err, nil)
				step("Set", x.Set("kv", "v", 1, 7), nil)
			}
			step("Commit", a.Commit(), nil)
			step("conflicting Commit", b.Commit(), ErrConflict)
			step("Abort after a failed Commit", b.Abort(), ErrTxnDone)
		})
	}
}

// TestRemoteStatsEqualEmbedded: a remote session's Stats is the served
// database's own, leaf for leaf, while the database is quiet.
func TestRemoteStatsEqualEmbedded(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	for i := 0; i < 5; i++ {
		commitWrite(t, p, "kv", "v", i, int64(i))
	}
	olapGet(t, p, "kv", "v", 0)
	sess, err := Dial(p.ServeAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	remote, local := sess.Stats(), p.Stats()
	if remote.Commits != 5 || remote.SnapshotCreateHist.Count == 0 || remote.Strategy != string(VMSnap) {
		t.Fatalf("remote Stats: %d commits, %d snapshots timed, strategy %q", remote.Commits, remote.SnapshotCreateHist.Count, remote.Strategy)
	}
	rv, lv := reflect.ValueOf(remote), reflect.ValueOf(local)
	for i := 0; i < rv.NumField(); i++ {
		if r, l := rv.Field(i).Interface(), lv.Field(i).Interface(); !reflect.DeepEqual(r, l) {
			t.Errorf("Stats.%s: remote %v, embedded %v", rv.Type().Field(i).Name, r, l)
		}
	}
}

// TestServerMultiNamespace: one NewServer front serves several
// registered databases behind a single port, resolved per-session by
// namespace; the server's Close severs sessions without closing the
// databases it fronts.
func TestServerMultiNamespace(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	open := func(val int64) *DB {
		db, err := Open(
			WithCostModel(ZeroCost),
			WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8),
		)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		t.Cleanup(func() { db.Close() })
		commitWrite(t, db, "kv", "v", 0, val)
		return db
	}
	srv.Register("alpha", open(11))
	srv.Register("", open(22)) // empty namespace serves as "default"

	for ns, want := range map[string]int64{"alpha": 11, "default": 22} {
		sess, err := Dial(srv.Addr(), ns)
		if err != nil {
			t.Fatalf("dial %s: %v", ns, err)
		}
		tx, err := sess.BeginTxn(OLAP)
		if err != nil {
			t.Fatalf("%s begin: %v", ns, err)
		}
		if tx.SnapshotTS() == 0 {
			t.Errorf("%s remote SnapshotTS = 0", ns)
		}
		if got, err := tx.Get("kv", "v", 0); err != nil || got != want {
			t.Errorf("%s v[0] = %d, %v; want %d", ns, got, err, want)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("%s abort: %v", ns, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s close: %v", ns, err)
		}
	}

	// The front's Close leaves the registered databases usable.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if _, err := Dial(srv.Addr(), "alpha"); err == nil {
		t.Fatal("dial after server Close succeeded")
	}
}

// TestReplicaReportsStalenessFromOpen: the staleness contract starts
// at Open, not at the first heartbeat — a freshly bootstrapped replica
// must already report a live connection and the primary's watermark
// from the welcome frame (caught by external-consumer verification:
// both read as zero until the 100ms heartbeat cadence first fired).
func TestReplicaReportsStalenessFromOpen(t *testing.T) {
	p := openPrimary(t, WithInitialSchema(NewSchema("kv").Int64("v").Build(), 8))
	ts := commitWrite(t, p, "kv", "v", 0, 5)

	r := openReplicaOf(t, p.ServeAddr())
	st := r.Stats()
	if !st.ReplicaConnected {
		t.Error("replica not reported connected immediately after Open")
	}
	if st.ReplicaSourceTS < ts {
		t.Errorf("ReplicaSourceTS = %d immediately after Open, want >= %d", st.ReplicaSourceTS, ts)
	}
}
