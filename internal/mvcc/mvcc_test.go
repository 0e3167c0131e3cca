package mvcc

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestOracleBeginTracksCompleted(t *testing.T) {
	var o Oracle
	if o.Begin() != 0 {
		t.Fatal("fresh oracle begin != 0")
	}
	ts := o.NextCommitTS()
	if ts != 1 {
		t.Fatalf("first commit ts = %d, want 1", ts)
	}
	// Uncompleted commits are invisible to new transactions.
	if o.Begin() != 0 {
		t.Fatal("begin advanced before completion")
	}
	o.Complete(ts)
	if o.Begin() != 1 {
		t.Fatalf("begin = %d after completion, want 1", o.Begin())
	}
	if o.Completed() != 1 {
		t.Fatal("completed mismatch")
	}
}

func TestOracleBlockAllocation(t *testing.T) {
	var o Oracle
	first := o.NextCommitTSBlock(4)
	if first != 1 {
		t.Fatalf("first block starts at %d, want 1", first)
	}
	if next := o.NextCommitTSBlock(3); next != 5 {
		t.Fatalf("second block starts at %d, want 5", next)
	}
	if single := o.NextCommitTS(); single != 8 {
		t.Fatalf("single allocation after blocks = %d, want 8", single)
	}
}

func TestOracleOutOfOrderCompletion(t *testing.T) {
	var o Oracle
	var fired []uint64
	o.SetCompleteHook(func(ts uint64) { fired = append(fired, ts) })
	if first := o.NextCommitTSBlock(5); first != 1 {
		t.Fatalf("block starts at %d, want 1", first)
	}
	// Complete 3, 2, 5 first: the watermark must not move past the
	// hole at 1, so none of these commits is visible yet.
	o.Complete(3)
	o.Complete(2)
	o.Complete(5)
	if got := o.Completed(); got != 0 {
		t.Fatalf("watermark = %d with ts 1 outstanding, want 0", got)
	}
	// Completing 1 releases the contiguous prefix 1..3.
	o.Complete(1)
	if got := o.Completed(); got != 3 {
		t.Fatalf("watermark = %d after completing 1, want 3", got)
	}
	// Completing 4 releases 4..5.
	o.Complete(4)
	if got := o.Completed(); got != 5 {
		t.Fatalf("watermark = %d after completing 4, want 5", got)
	}
	want := []uint64{1, 2, 3, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("hook fired for %v, want %v", fired, want)
	}
	for i, ts := range want {
		if fired[i] != ts {
			t.Fatalf("hook order %v, want %v", fired, want)
		}
	}
	// Double completion is a no-op.
	o.Complete(2)
	if got := o.Completed(); got != 5 {
		t.Fatalf("watermark moved to %d on double completion", got)
	}
}

func TestOracleNoopCompletionSkipsHook(t *testing.T) {
	var o Oracle
	var fired []uint64
	o.SetCompleteHook(func(ts uint64) { fired = append(fired, ts) })
	if first := o.NextCommitTSBlock(4); first != 1 {
		t.Fatalf("block starts at %d", first)
	}
	// 2 is a validation-failure slot completed out of order: it must
	// advance the watermark when 1 lands but never fire the hook.
	o.CompleteNoop(2)
	o.Complete(3)
	o.Complete(1)
	o.CompleteNoop(4)
	if got := o.Completed(); got != 4 {
		t.Fatalf("watermark = %d, want 4", got)
	}
	want := []uint64{1, 3}
	if len(fired) != len(want) || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("hook fired for %v, want %v", fired, want)
	}
}

func TestOracleWaitCompleted(t *testing.T) {
	var o Oracle
	if first := o.NextCommitTSBlock(3); first != 1 {
		t.Fatalf("block starts at %d", first)
	}
	o.Complete(1)
	o.WaitCompleted(1) // already complete: returns immediately
	done := make(chan struct{})
	go func() {
		o.WaitCompleted(3)
		close(done)
	}()
	o.Complete(3) // parks above the hole at 2
	select {
	case <-done:
		t.Fatal("WaitCompleted(3) returned with ts 2 outstanding")
	case <-time.After(10 * time.Millisecond):
	}
	o.Complete(2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitCompleted(3) did not return after the hole drained")
	}
}

func TestOracleConcurrentOutOfOrderCompletion(t *testing.T) {
	var o Oracle
	const goroutines, perG = 8, 500
	first := o.NextCommitTSBlock(goroutines * perG)
	if first != 1 {
		t.Fatalf("block starts at %d", first)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleaved stripes complete out of order by design.
			for i := 0; i < perG; i++ {
				o.Complete(uint64(g + i*goroutines + 1))
			}
		}(g)
	}
	wg.Wait()
	if got := o.Completed(); got != goroutines*perG {
		t.Fatalf("watermark = %d, want %d", got, goroutines*perG)
	}
}

func TestTxnStateEachColumn(t *testing.T) {
	st := NewTxnState(1, 0, OLTP)
	a := ColumnID{Table: 0, Col: 0}
	b := ColumnID{Table: 0, Col: 1}
	c := ColumnID{Table: 2, Col: 0}
	st.StageWrite(a, 7, 1)
	st.StageWrite(a, 9, 2)
	st.NotePointRead(b, 3)
	st.NotePredicate(Predicate{Col: c, Lo: 0, Hi: 10})
	st.NotePredicate(Predicate{Col: a, Lo: 5, Hi: 6})
	seen := map[ColumnID]int{}
	st.EachColumn(func(id ColumnID) { seen[id]++ })
	for _, id := range []ColumnID{a, b, c} {
		if seen[id] != 1 {
			t.Fatalf("column %v visited %d times, want 1 (all: %v)", id, seen[id], seen)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("visited %d distinct columns, want 3: %v", len(seen), seen)
	}
}

func TestOracleMonotoneCommitTS(t *testing.T) {
	var o Oracle
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ts := o.NextCommitTS()
				mu.Lock()
				if seen[ts] {
					t.Errorf("duplicate commit ts %d", ts)
				}
				seen[ts] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestChainPushAndVisibility(t *testing.T) {
	c := NewChainStore()
	// History of row 3: value 10 written at ts 0 (load), 20 at ts 5,
	// 30 at ts 9. In-place holds 30; the chain holds the displaced
	// versions 20@5 and 10@0 (newest first).
	c.Push(3, 10, 0)
	c.Push(3, 20, 5)
	if got := c.ChainLen(3); got != 2 {
		t.Fatalf("chain len = %d", got)
	}
	cases := []struct {
		ts   uint64
		want int64
		ok   bool
	}{
		{0, 10, true},
		{4, 10, true},
		{5, 20, true},
		{8, 20, true},
		{100, 20, true}, // chain answers with its newest visible
	}
	for _, tc := range cases {
		got, ok := c.VisibleAt(3, tc.ts)
		if ok != tc.ok || got != tc.want {
			t.Errorf("VisibleAt(ts=%d) = %d,%v want %d,%v", tc.ts, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := c.VisibleAt(99, 10); ok {
		t.Fatal("row without chain reported visible version")
	}
}

func TestChainVisibleAtSkipsTooNew(t *testing.T) {
	c := NewChainStore()
	c.Push(1, 100, 7) // only version is from ts 7
	if _, ok := c.VisibleAt(1, 6); ok {
		t.Fatal("reader at ts 6 saw version from ts 7")
	}
}

func TestChainStatistics(t *testing.T) {
	c := NewChainStore()
	for row := 0; row < 10; row++ {
		for v := 0; v < row; v++ {
			c.Push(row, int64(v), uint64(v))
		}
	}
	if got := c.Nodes(); got != 45 {
		t.Fatalf("nodes = %d, want 45", got)
	}
	if got := c.Rows(); got != 9 {
		t.Fatalf("rows = %d, want 9", got)
	}
	if c.Head(0) != nil {
		t.Fatal("row 0 should have no chain")
	}
}

func TestChainPrune(t *testing.T) {
	c := NewChainStore()
	// Row 1: in-place written at ts 10; chain: 30@8, 20@5, 10@0.
	c.Push(1, 10, 0)
	c.Push(1, 20, 5)
	c.Push(1, 30, 8)
	// Row 2: in-place written at ts 2; chain: 5@1.
	c.Push(2, 5, 1)
	inPlace := func(row int) uint64 {
		if row == 1 {
			return 10
		}
		return 2
	}
	// Oldest running transaction began at ts 6. Row 2's in-place (ts 2)
	// is visible to everyone -> whole chain unreachable. Row 1: the
	// reader at 6 needs 20@5; 10@0 is unreachable.
	removed := c.Prune(6, inPlace)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if got := c.ChainLen(1); got != 2 {
		t.Fatalf("row 1 chain len = %d, want 2 (30@8, 20@5)", got)
	}
	if got, ok := c.VisibleAt(1, 6); !ok || got != 20 {
		t.Fatalf("reader at 6 sees %d,%v want 20,true", got, ok)
	}
	if c.Head(2) != nil {
		t.Fatal("row 2 chain not dropped")
	}
	if got := c.Nodes(); got != 2 {
		t.Fatalf("node counter = %d, want 2", got)
	}
}

func TestChainConcurrentReadersDuringPush(t *testing.T) {
	c := NewChainStore()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 2000; i++ {
			c.Push(7, int64(i), uint64(i))
		}
	}()
	// Val == WTS here, so a reader at 1000 racing pushes 1..999 sees the
	// newest pushed version; it must never see one newer than 1000 nor
	// move backwards.
	var last int64
	for j := 0; j < 2000; j++ {
		if v, ok := c.VisibleAt(7, 1000); ok {
			if v > 1000 || v < last {
				t.Fatalf("reader at 1000 saw %d after %d", v, last)
			}
			last = v
		}
	}
	<-done
	if v, ok := c.VisibleAt(7, 1000); !ok || v != 1000 {
		t.Fatalf("final read = %d,%v", v, ok)
	}
}

func TestBlockMetaNoteAndRange(t *testing.T) {
	b := NewBlockMeta(3000) // 3 blocks: 1024, 1024, 952
	if b.Blocks() != 3 {
		t.Fatalf("blocks = %d", b.Blocks())
	}
	if _, _, any := b.Range(0); any {
		t.Fatal("fresh meta reports versioned rows")
	}
	b.Note(100)
	b.Note(50)
	b.Note(900)
	lo, hi, any := b.Range(0)
	if !any || lo != 50 || hi != 900 {
		t.Fatalf("range = %d..%d,%v want 50..900,true", lo, hi, any)
	}
	b.Note(2500)
	lo, hi, any = b.Range(2)
	if !any || lo != 2500 || hi != 2500 {
		t.Fatalf("block 2 range = %d..%d,%v", lo, hi, any)
	}
	if got := b.VersionedBlocks(); got != 2 {
		t.Fatalf("versioned blocks = %d, want 2", got)
	}
	lo, hi = b.BlockSpan(2)
	if lo != 2048 || hi != 3000 {
		t.Fatalf("span = %d..%d", lo, hi)
	}
}

func TestBlockMetaClone(t *testing.T) {
	b := NewBlockMeta(2048)
	b.Note(10)
	c := b.Clone()
	b.Note(2000)
	if _, _, any := c.Range(1); any {
		t.Fatal("clone sees later notes")
	}
	if lo, hi, any := c.Range(0); !any || lo != 10 || hi != 10 {
		t.Fatalf("clone block 0 = %d..%d,%v", lo, hi, any)
	}
}

func TestBlockMetaConcurrentNotes(t *testing.T) {
	b := NewBlockMeta(BlockRows)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < BlockRows; i += 8 {
				b.Note(i)
			}
		}(g)
	}
	wg.Wait()
	lo, hi, any := b.Range(0)
	if !any || lo != 0 || hi != BlockRows-1 {
		t.Fatalf("range = %d..%d,%v", lo, hi, any)
	}
}

func TestPropertyBlockMetaBounds(t *testing.T) {
	f := func(rows []uint16) bool {
		b := NewBlockMeta(1 << 16)
		minR, maxR := -1, -1
		for _, r := range rows {
			row := int(r) % BlockRows // keep everything in block 0
			b.Note(row)
			if minR == -1 || row < minR {
				minR = row
			}
			if row > maxR {
				maxR = row
			}
		}
		lo, hi, any := b.Range(0)
		if len(rows) == 0 {
			return !any
		}
		return any && lo == minR && hi == maxR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTxnStagedWrites(t *testing.T) {
	tx := NewTxnState(1, 0, OLTP)
	col := ColumnID{0, 2}
	if tx.HasWrites() {
		t.Fatal("fresh txn has writes")
	}
	tx.StageWrite(col, 5, 100)
	tx.StageWrite(col, 5, 200) // overwrite
	tx.StageWrite(col, 9, 300)
	if v, ok := tx.StagedValue(col, 5); !ok || v != 200 {
		t.Fatalf("staged = %d,%v", v, ok)
	}
	if _, ok := tx.StagedValue(ColumnID{1, 0}, 5); ok {
		t.Fatal("phantom staged value")
	}
	if tx.NumWrites() != 2 {
		t.Fatalf("num writes = %d, want 2", tx.NumWrites())
	}
	var order []int
	tx.EachWrite(func(_ ColumnID, row int, val int64) {
		order = append(order, row)
		if row == 5 && val != 200 {
			t.Fatalf("row 5 val = %d", val)
		}
	})
	if len(order) != 2 || order[0] != 5 || order[1] != 9 {
		t.Fatalf("write order = %v", order)
	}
}

func TestTxnConflictDetection(t *testing.T) {
	colA, colB := ColumnID{0, 0}, ColumnID{0, 1}
	tx := NewTxnState(1, 10, OLTP)
	tx.NotePointRead(colA, 7)
	tx.NotePredicate(Predicate{Col: colB, Lo: 100, Hi: 200})

	cases := []struct {
		e    WriteEntry
		want bool
	}{
		{WriteEntry{Col: colA, Row: 7, Old: 1, New: 2}, true},      // point read hit
		{WriteEntry{Col: colA, Row: 8, Old: 1, New: 2}, false},     // other row
		{WriteEntry{Col: colB, Row: 1, Old: 150, New: 5}, true},    // old in range
		{WriteEntry{Col: colB, Row: 1, Old: 5, New: 150}, true},    // new in range
		{WriteEntry{Col: colB, Row: 1, Old: 5, New: 99}, false},    // both outside
		{WriteEntry{Col: colA, Row: 1, Old: 150, New: 150}, false}, // range is on colB only
	}
	for i, c := range cases {
		if got := tx.conflictsWith(c.e); got != c.want {
			t.Errorf("case %d: conflictsWith(%+v) = %v, want %v", i, c.e, got, c.want)
		}
	}
	pts, preds := tx.ReadSetSize()
	if pts != 1 || preds != 1 {
		t.Fatalf("read set = %d,%d", pts, preds)
	}
}

func TestRecentListValidate(t *testing.T) {
	r := NewRecentList()
	col := ColumnID{0, 0}
	r.Add(CommitRecord{TS: 5, Writes: []WriteEntry{{Col: col, Row: 1, Old: 10, New: 20}}})
	r.Add(CommitRecord{TS: 8, Writes: []WriteEntry{{Col: col, Row: 2, Old: 30, New: 40}}})

	// Reader began at 6: only the ts-8 commit overlaps its lifetime.
	tx := NewTxnState(1, 6, OLTP)
	tx.NotePointRead(col, 1)
	if got := r.Validate(tx); got != 0 {
		t.Fatalf("validate = %d, want 0 (commit 5 predates begin)", got)
	}
	tx2 := NewTxnState(2, 6, OLTP)
	tx2.NotePointRead(col, 2)
	if got := r.Validate(tx2); got != 8 {
		t.Fatalf("validate = %d, want 8", got)
	}
	// A transaction that began before both sees both.
	tx3 := NewTxnState(3, 0, OLTP)
	tx3.NotePointRead(col, 1)
	if got := r.Validate(tx3); got != 5 {
		t.Fatalf("validate = %d, want 5", got)
	}
}

func TestRecentListPrune(t *testing.T) {
	r := NewRecentList()
	for ts := uint64(1); ts <= 10; ts++ {
		r.Add(CommitRecord{TS: ts})
	}
	if got := r.PruneBelow(4); got != 4 {
		t.Fatalf("pruned = %d, want 4", got)
	}
	if r.Len() != 6 {
		t.Fatalf("len = %d, want 6", r.Len())
	}
	if got := r.PruneBelow(0); got != 0 {
		t.Fatalf("pruned = %d, want 0", got)
	}
}

func TestActiveSet(t *testing.T) {
	a := NewActiveSet()
	if got := a.MinBegin(42); got != 42 {
		t.Fatalf("empty min = %d", got)
	}
	a.Register(1, 10)
	a.Register(2, 5)
	a.Register(3, 20)
	if got := a.MinBegin(42); got != 5 {
		t.Fatalf("min = %d, want 5", got)
	}
	a.Unregister(2)
	if got := a.MinBegin(42); got != 10 {
		t.Fatalf("min = %d, want 10", got)
	}
	if a.Len() != 2 {
		t.Fatalf("len = %d", a.Len())
	}
}

func TestClassString(t *testing.T) {
	if OLTP.String() != "OLTP" || OLAP.String() != "OLAP" {
		t.Fatal("class strings wrong")
	}
}

// Property: for a random version history of one row, VisibleAt returns
// exactly the value the sequential history implies.
func TestPropertyChainVisibility(t *testing.T) {
	f := func(writes []uint8, probe uint8) bool {
		c := NewChainStore()
		type ver struct {
			val int64
			ts  uint64
		}
		hist := []ver{{val: -1, ts: 0}} // initial load at ts 0
		ts := uint64(0)
		for i, w := range writes {
			ts += uint64(w%5) + 1
			// Push the displaced (previous) version.
			prev := hist[len(hist)-1]
			c.Push(0, prev.val, prev.ts)
			hist = append(hist, ver{val: int64(i), ts: ts})
		}
		// Reference: newest version with ts <= probeTS that is NOT the
		// in-place one (the chain never answers for the in-place value).
		probeTS := uint64(probe)
		var want *ver
		for i := len(hist) - 2; i >= 0; i-- {
			if hist[i].ts <= probeTS {
				want = &hist[i]
				break
			}
		}
		got, ok := c.VisibleAt(0, probeTS)
		if want == nil {
			return !ok
		}
		return ok && got == want.val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleSeed(t *testing.T) {
	var o Oracle
	o.Seed(42)
	if o.Begin() != 42 || o.Completed() != 42 {
		t.Fatalf("seeded oracle at %d/%d, want 42/42", o.Begin(), o.Completed())
	}
	// The next allocation continues above the seed and completes
	// normally past it.
	ts := o.NextCommitTS()
	if ts != 43 {
		t.Fatalf("first post-seed commit TS = %d, want 43", ts)
	}
	o.Complete(ts)
	if o.Completed() != 43 {
		t.Fatalf("watermark = %d, want 43", o.Completed())
	}
}

func TestBlockMetaZoneWiden(t *testing.T) {
	b := NewBlockMeta(3000)
	if lo, hi := b.Zone(0); lo != 0 || hi != 0 {
		t.Fatalf("fresh zone = [%d,%d], want [0,0]", lo, hi)
	}
	b.Widen(100, 42)
	b.Widen(200, -7)
	if lo, hi := b.Zone(0); lo != -7 || hi != 42 {
		t.Fatalf("zone 0 = [%d,%d], want [-7,42]", lo, hi)
	}
	// Widening never narrows, and other blocks stay untouched.
	b.Widen(100, 5)
	if lo, hi := b.Zone(0); lo != -7 || hi != 42 {
		t.Fatalf("zone 0 after inner widen = [%d,%d]", lo, hi)
	}
	if lo, hi := b.Zone(1); lo != 0 || hi != 0 {
		t.Fatalf("zone 1 = [%d,%d], want [0,0]", lo, hi)
	}
	b.SetZone(0, 1, 2)
	if lo, hi := b.Zone(0); lo != 1 || hi != 2 {
		t.Fatalf("zone 0 after SetZone = [%d,%d]", lo, hi)
	}
}

func TestBlockMetaZoneWidenRange(t *testing.T) {
	b := NewBlockMeta(4 * BlockRows)
	vals := make([]int64, 2*BlockRows+10)
	for i := range vals {
		vals[i] = int64(i)
	}
	b.WidenRange(BlockRows/2, vals) // spans blocks 0..2
	if lo, hi := b.Zone(0); lo != 0 || hi != int64(BlockRows/2-1) {
		t.Fatalf("zone 0 = [%d,%d]", lo, hi)
	}
	// Widen-only: the fresh {0,0} zone stays folded into the min.
	if lo, hi := b.Zone(1); lo != 0 || hi != int64(3*BlockRows/2-1) {
		t.Fatalf("zone 1 = [%d,%d]", lo, hi)
	}
	if lo, hi := b.Zone(3); lo != 0 || hi != 0 {
		t.Fatalf("zone 3 = [%d,%d], want untouched", lo, hi)
	}
}

func TestBlockMetaZoneConcurrentWiden(t *testing.T) {
	b := NewBlockMeta(BlockRows)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Widen(i%BlockRows, int64(g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	if lo, hi := b.Zone(0); lo != 0 || hi != 7999 {
		t.Fatalf("zone = [%d,%d], want [0,7999]", lo, hi)
	}
}

func TestBlockMetaCloneSharesZones(t *testing.T) {
	b := NewBlockMeta(2048)
	b.Widen(0, 9)
	c := b.Clone()
	if lo, hi := c.Zone(0); lo != 0 || hi != 9 {
		t.Fatalf("clone zone = [%d,%d]", lo, hi)
	}
}

func TestChainEachVersion(t *testing.T) {
	c := NewChainStore()
	c.Push(1, 10, 5)
	c.Push(1, 20, 7)
	c.Push(65, 30, 9) // same shard as row 1
	got := map[int64]int{}
	c.EachVersion(func(row int, val int64) { got[val] = row })
	want := map[int64]int{10: 1, 20: 1, 30: 65}
	if len(got) != len(want) {
		t.Fatalf("versions = %v", got)
	}
	for v, r := range want {
		if got[v] != r {
			t.Fatalf("version %d on row %d, want %d", v, got[v], r)
		}
	}
}
