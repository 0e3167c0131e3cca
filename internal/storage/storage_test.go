package storage

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"ankerdb/internal/vmem"
)

func newProc() *vmem.Process {
	return vmem.NewProcess()
}

func TestWordArrayRoundTrip(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Free()
	if w.Rows() != 1000 {
		t.Fatalf("rows = %d", w.Rows())
	}
	for i := 0; i < 1000; i++ {
		w.Set(i, int64(i)-500)
	}
	for i := 0; i < 1000; i++ {
		if got := w.Get(i); got != int64(i)-500 {
			t.Fatalf("row %d = %d, want %d", i, got, int64(i)-500)
		}
	}
}

func TestWordArrayZeroInitialised(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i += 7 {
		if got := w.Get(i); got != 0 {
			t.Fatalf("row %d = %d, want 0", i, got)
		}
	}
}

func TestWordArrayPreFaultsAllPages(t *testing.T) {
	p := newProc()
	st0 := p.Stats()
	w, err := NewWordArray(p, 4096) // 8 pages
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumPTEs(); got < 8 {
		t.Fatalf("PTEs after NewWordArray = %d, want >= 8 (pre-faulted)", got)
	}
	_ = st0
	_ = w
}

func TestWordArrayRejectsBadRows(t *testing.T) {
	p := newProc()
	if _, err := NewWordArray(p, 0); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := NewWordArray(p, -5); err == nil {
		t.Fatal("rows<0 accepted")
	}
}

func TestWordArrayFill(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 300)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i * i)
	}
	w.Fill(vals)
	for i := range vals {
		if got := w.Get(i); got != vals[i] {
			t.Fatalf("row %d = %d, want %d", i, got, vals[i])
		}
	}
}

func TestViewWordArray(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	w.Set(42, 777)
	v := ViewWordArray(p, w.Addr(), 100)
	if got := v.Get(42); got != 777 {
		t.Fatalf("view row 42 = %d, want 777", got)
	}
	if v.SizeBytes() != w.SizeBytes() {
		t.Fatalf("view size %d != %d", v.SizeBytes(), w.SizeBytes())
	}
}

func TestPageCache(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w.Set(i, int64(3*i))
	}
	pc := w.Resolve()
	if pc.Rows() != 2000 {
		t.Fatalf("cache rows = %d", pc.Rows())
	}
	for i := 0; i < 2000; i++ {
		if got := pc.Get(i); got != int64(3*i) {
			t.Fatalf("cache row %d = %d, want %d", i, got, 3*i)
		}
	}
	words, base := pc.Page(600)
	if base > 600 || base+len(words) <= 600 {
		t.Fatalf("Page(600) base=%d len=%d does not cover row", base, len(words))
	}
	if int64(words[600-base]) != 1800 {
		t.Fatalf("page word = %d, want 1800", words[600-base])
	}
}

func TestPageCacheSeesCommittedWritesToLiveArray(t *testing.T) {
	// In homogeneous mode the cur generation is scanned through a
	// cache while writers update it in place; the cache must observe
	// those in-place writes (pages are never COW-replaced without
	// snapshots).
	p := newProc()
	w, err := NewWordArray(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	pc := w.Resolve()
	w.Set(5, 123)
	if got := pc.Get(5); got != 123 {
		t.Fatalf("cache missed in-place write: %d", got)
	}
}

func TestWordArraySignedAndUnsigned(t *testing.T) {
	p := newProc()
	w, err := NewWordArray(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Set(0, -1)
	if got := w.GetU(0); got != ^uint64(0) {
		t.Fatalf("unsigned view of -1 = %#x", got)
	}
	w.SetU(1, 1<<63)
	if got := w.Get(1); got != -(1 << 62 << 1) {
		t.Fatalf("signed view = %d", got)
	}
}

func TestDictEncodeDecode(t *testing.T) {
	d := NewDict()
	a := d.Encode("apple")
	b := d.Encode("banana")
	if a == b {
		t.Fatal("distinct strings share a code")
	}
	if got := d.Encode("apple"); got != a {
		t.Fatalf("re-encode changed code: %d vs %d", got, a)
	}
	if d.Decode(a) != "apple" || d.Decode(b) != "banana" {
		t.Fatal("decode mismatch")
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	if c, ok := d.Lookup("banana"); !ok || c != b {
		t.Fatalf("lookup = %d,%v", c, ok)
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Fatal("lookup invented a code")
	}
	got := d.Strings()
	if len(got) != 2 || got[a] != "apple" || got[b] != "banana" {
		t.Fatalf("strings = %v", got)
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	codes := make([][]int64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			codes[g] = make([]int64, len(words))
			for i, w := range words {
				codes[g][i] = d.Encode(w)
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != len(words) {
		t.Fatalf("len = %d, want %d", d.Len(), len(words))
	}
	for g := 1; g < 8; g++ {
		for i := range words {
			if codes[g][i] != codes[0][i] {
				t.Fatalf("goroutine %d got different code for %q", g, words[i])
			}
		}
	}
}

func TestPropertyDictBijective(t *testing.T) {
	f := func(strs []string) bool {
		d := NewDict()
		for _, s := range strs {
			c := d.Encode(s)
			if d.Decode(c) != s {
				return false
			}
		}
		return d.Len() <= len(strs) || len(strs) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	ok := Schema{Table: "t", Columns: []ColumnDef{{Name: "a", Type: Int64}, {Name: "b", Type: Varchar}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{Table: "", Columns: []ColumnDef{{Name: "a", Type: Int64}}},
		{Table: "t"},
		{Table: "t", Columns: []ColumnDef{{Name: "", Type: Int64}}},
		{Table: "t", Columns: []ColumnDef{{Name: "a", Type: Int64}, {Name: "a", Type: Date}}},
		{Table: "t", Columns: []ColumnDef{{Name: "a", Type: Int64, Index: 9}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
	if ok.ColumnIndex("b") != 1 || ok.ColumnIndex("zzz") != -1 {
		t.Fatal("ColumnIndex misbehaves")
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{Int64: "INT64", Money: "MONEY", Date: "DATE", Varchar: "VARCHAR", Type(99): "Type(99)"}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestShardOfDistribution(t *testing.T) {
	// The commit pipeline hashes (table, column) index pairs onto
	// shards; similarly named columns are exactly the low consecutive
	// indices of one table (c0, c1, c2, ...), so the test grids over
	// small sequential indices — the pattern the previous mix collided
	// on — and requires every shard to receive a near-fair share.
	for _, n := range []int{2, 4, 8, 16} {
		const tables, cols = 16, 64
		counts := make([]int, n)
		for tab := 0; tab < tables; tab++ {
			for col := 0; col < cols; col++ {
				s := ShardOf(tab, col, n)
				if s < 0 || s >= n {
					t.Fatalf("ShardOf(%d,%d,%d) = %d out of range", tab, col, n, s)
				}
				counts[s]++
			}
		}
		mean := float64(tables*cols) / float64(n)
		for s, c := range counts {
			if dev := float64(c)/mean - 1; dev > 0.35 || dev < -0.35 {
				t.Fatalf("n=%d: shard %d holds %d of %d pairs (mean %.0f): skew %.0f%%",
					n, s, c, tables*cols, mean, dev*100)
			}
		}
	}
}

func TestShardOfLowIndexColumnsSpread(t *testing.T) {
	// The first handful of columns of table 0 — the hottest addresses
	// in every benchmark — must not all land on one shard.
	for _, n := range []int{2, 4, 8} {
		seen := map[int]bool{}
		for col := 0; col < 8; col++ {
			seen[ShardOf(0, col, n)] = true
		}
		if len(seen) < 2 {
			t.Fatalf("n=%d: columns 0-7 of table 0 all hash to one shard", n)
		}
	}
}

func TestShardOfDegenerate(t *testing.T) {
	if got := ShardOf(3, 5, 1); got != 0 {
		t.Fatalf("n=1 must pin shard 0, got %d", got)
	}
	if got := ShardOf(3, 5, 0); got != 0 {
		t.Fatalf("n=0 must pin shard 0, got %d", got)
	}
}

func TestWriteReadWordsRoundtrip(t *testing.T) {
	// Cover the chunk boundary (serializeChunk) and odd tails.
	for _, n := range []int{0, 1, 511, 512, 513, 4096 + 17} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
		}
		var buf bytes.Buffer
		if err := WriteWords(&buf, n, func(i int) uint64 { return src[i] }); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		if buf.Len() != 8*n {
			t.Fatalf("n=%d: wrote %d bytes, want %d", n, buf.Len(), 8*n)
		}
		dst := make([]uint64, n)
		if err := ReadWords(&buf, n, func(i int, v uint64) { dst[i] = v }); err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("n=%d: word %d = %d, want %d", n, i, dst[i], src[i])
			}
		}
	}
}

func TestReadWordsShortInput(t *testing.T) {
	if err := ReadWords(bytes.NewReader(make([]byte, 12)), 2, func(int, uint64) {}); err == nil {
		t.Fatal("ReadWords accepted truncated input")
	}
}

func TestDictLoad(t *testing.T) {
	d := NewDict()
	d.Encode("will-be-replaced")
	d.Load([]string{"a", "b", "c"})
	if d.Len() != 3 || d.Decode(1) != "b" {
		t.Fatalf("loaded dict wrong: len=%d", d.Len())
	}
	if c, ok := d.Lookup("c"); !ok || c != 2 {
		t.Fatalf("Lookup(c) = %d, %v", c, ok)
	}
	if d.Encode("a") != 0 {
		t.Fatal("Encode of loaded string assigned a new code")
	}
	if d.Encode("d") != 3 {
		t.Fatal("Encode after Load did not continue from loaded length")
	}
}

func TestExtentGrowAndFill(t *testing.T) {
	p := newProc()
	e, err := NewExtent("x", int(p.PageWords()), DefaultColumnAlloc(p))
	if err != nil {
		t.Fatal(err)
	}
	one := e.Rows()
	if one != int(p.PageWords()) {
		t.Fatalf("initial rows = %d, want %d", one, p.PageWords())
	}
	if err := e.Grow(); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 2*one || e.Chunks() != 2 {
		t.Fatalf("after grow: rows=%d chunks=%d", e.Rows(), e.Chunks())
	}
	// Writes across the chunk boundary round-trip.
	for _, row := range []int{0, one - 1, one, 2*one - 1} {
		e.Set(row, int64(3*row+1))
	}
	for _, row := range []int{0, one - 1, one, 2*one - 1} {
		if got := e.Get(row); got != int64(3*row+1) {
			t.Fatalf("row %d = %d, want %d", row, got, 3*row+1)
		}
	}
	// FillWindow spanning the boundary.
	words := make([]uint64, 10)
	for i := range words {
		words[i] = uint64(100 + i)
	}
	e.FillWindow(one-5, words)
	for i := range words {
		if got := e.GetU(one - 5 + i); got != uint64(100+i) {
			t.Fatalf("window row %d = %d", one-5+i, got)
		}
	}
	// FillU covers a cross-boundary range.
	e.FillU(one-3, 6, NeverTS)
	for i := 0; i < 6; i++ {
		if got := e.GetU(one - 3 + i); got != NeverTS {
			t.Fatalf("FillU row %d = %#x", one-3+i, got)
		}
	}
	if got := len(e.Regions()); got != 2 {
		t.Fatalf("regions = %d, want 2", got)
	}
}

func TestExtentRejectsBadChunkRows(t *testing.T) {
	p := newProc()
	if _, err := NewExtent("x", 3, DefaultColumnAlloc(p)); err == nil {
		t.Fatal("non-power-of-two chunk rows accepted")
	}
}

func TestTableGrowth(t *testing.T) {
	p := newProc()
	schema := Schema{Table: "g", Columns: []ColumnDef{{Name: "a", Type: Int64}, {Name: "b", Type: Varchar}}}
	tab, err := NewTable(p, schema, 100, DefaultColumnAlloc(p))
	if err != nil {
		t.Fatal(err)
	}
	if tab.InitialRows() != 100 {
		t.Fatalf("InitialRows = %d", tab.InitialRows())
	}
	chunk := tab.ChunkRows()
	if chunk < 100 || chunk&(chunk-1) != 0 {
		t.Fatalf("chunk rows = %d", chunk)
	}
	if tab.Capacity() != chunk {
		t.Fatalf("capacity = %d, want %d", tab.Capacity(), chunk)
	}
	// Initial rows are born at time zero, the chunk tail is unborn.
	if got := tab.Birth().GetU(99); got != 0 {
		t.Fatalf("birth[99] = %#x, want 0", got)
	}
	if got := tab.Birth().GetU(100); got != NeverTS {
		t.Fatalf("birth[100] = %#x, want NeverTS", got)
	}
	if err := tab.EnsureCapacity(chunk + 1); err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() != 2*chunk {
		t.Fatalf("capacity after grow = %d, want %d", tab.Capacity(), 2*chunk)
	}
	if got := tab.Birth().GetU(chunk); got != NeverTS {
		t.Fatalf("new chunk birth = %#x, want NeverTS", got)
	}
	data, wts := tab.ColumnRegions(0, 2)
	if len(data) != 2 || len(wts) != 2 {
		t.Fatalf("column regions = %d/%d, want 2/2", len(data), len(wts))
	}
	birth, death := tab.VisRegions(1)
	if len(birth) != 1 || len(death) != 1 {
		t.Fatalf("vis regions = %d/%d", len(birth), len(death))
	}
	// A concatenated PageCache over both chunks reads across the seam.
	tab.Data(0).Set(chunk-1, 7)
	tab.Data(0).Set(chunk, 8)
	regs, _ := tab.ColumnRegions(0, 2)
	pc := ResolveRegions(p, regs, tab.Capacity())
	if pc.Get(chunk-1) != 7 || pc.Get(chunk) != 8 {
		t.Fatalf("page cache seam read: %d/%d", pc.Get(chunk-1), pc.Get(chunk))
	}
}
