package query

import (
	"math"
	"reflect"
	"testing"
)

// memTable is an in-memory Table fixture: column-major data, a
// per-column dictionary for string columns, per-block zones computed
// over all rows (deleted included — mirroring the widen-only zones of
// the real store), and a deleted set to exercise visibility gaps.
type memTable struct {
	name      string
	cols      []string
	str       []bool
	data      [][]int64
	dicts     []map[string]int64
	rev       []map[int64]string
	blockRows int
	deleted   map[int]bool
	noZones   bool
	prepared  bool
}

func newMemTable(name string, blockRows int) *memTable {
	return &memTable{name: name, blockRows: blockRows, deleted: map[int]bool{}}
}

func (m *memTable) addInt(name string, vals []int64) *memTable {
	m.cols = append(m.cols, name)
	m.str = append(m.str, false)
	m.data = append(m.data, vals)
	m.dicts = append(m.dicts, nil)
	m.rev = append(m.rev, nil)
	return m
}

func (m *memTable) addStr(name string, vals []string) *memTable {
	dict := map[string]int64{}
	rev := map[int64]string{}
	codes := make([]int64, len(vals))
	for i, s := range vals {
		c, ok := dict[s]
		if !ok {
			c = int64(len(dict))
			dict[s] = c
			rev[c] = s
		}
		codes[i] = c
	}
	m.cols = append(m.cols, name)
	m.str = append(m.str, true)
	m.data = append(m.data, codes)
	m.dicts = append(m.dicts, dict)
	m.rev = append(m.rev, rev)
	return m
}

func (m *memTable) Name() string          { return m.name }
func (m *memTable) Columns() []string     { return m.cols }
func (m *memTable) IsString(col int) bool { return m.str[col] }

func (m *memTable) Encode(col int, s string) (int64, bool) {
	c, ok := m.dicts[col][s]
	return c, ok
}

func (m *memTable) Decode(col int, code int64) string { return m.rev[col][code] }

func (m *memTable) Prepare(cols []int) error { m.prepared = true; return nil }

func (m *memTable) Rows() int {
	if len(m.data) == 0 {
		return 0
	}
	return len(m.data[0])
}

func (m *memTable) NumRows() int64 { return int64(m.Rows() - len(m.deleted)) }

func (m *memTable) BlockRows() int { return m.blockRows }

func (m *memTable) Zone(col, blk int) (int64, int64, bool) {
	if m.noZones {
		return 0, 0, false
	}
	lo := blk * m.blockRows
	hi := lo + m.blockRows
	if hi > m.Rows() {
		hi = m.Rows()
	}
	if lo >= hi {
		return 0, 0, false
	}
	zlo, zhi := int64(math.MaxInt64), int64(math.MinInt64)
	for r := lo; r < hi; r++ {
		v := m.data[col][r]
		if v < zlo {
			zlo = v
		}
		if v > zhi {
			zhi = v
		}
	}
	return zlo, zhi, true
}

func (m *memTable) ReadBlock(lo, hi int, cols []int, rowIDs []int64, out [][]int64) (int, error) {
	n := 0
	for r := lo; r < hi; r++ {
		if m.deleted[r] {
			continue
		}
		rowIDs[n] = int64(r)
		for i, c := range cols {
			out[i][n] = m.data[c][r]
		}
		n++
	}
	return n, nil
}

// ordersTable builds a 4-block probe fixture with a sorted key, a
// small group column and a payload.
func ordersTable(n, blockRows int) *memTable {
	k := make([]int64, n)
	g := make([]int64, n)
	v := make([]int64, n)
	cust := make([]int64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(i)             // sorted: zones are tight
		g[i] = int64(i % 4)         // group key
		v[i] = int64((i * 7) % 100) // payload
		cust[i] = int64(i % 5)      // join key
	}
	return newMemTable("orders", blockRows).
		addInt("k", k).addInt("g", g).addInt("v", v).addInt("cust", cust)
}

func custTable() *memTable {
	return newMemTable("customers", 4).
		addInt("id", []int64{0, 1, 2, 3, 4}).
		addStr("region", []string{"north", "south", "north", "east", "south"}).
		addInt("credit", []int64{10, 20, 30, 40, 50})
}

func runQ(t *testing.T, b *Builder) *Result {
	t.Helper()
	r, err := b.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestScanProjectOrder(t *testing.T) {
	m := ordersTable(50, 8)
	m.deleted[3] = true
	m.deleted[40] = true
	r := runQ(t, New(m).Select("k", RowID).Morsels(4))
	if got := r.Columns(); !reflect.DeepEqual(got, []string{"k", RowID}) {
		t.Fatalf("columns = %v", got)
	}
	if r.Len() != 48 {
		t.Fatalf("rows = %d, want 48", r.Len())
	}
	prev := int64(-1)
	for i := 0; i < r.Len(); i++ {
		if r.At(i, 0) != r.At(i, 1) {
			t.Fatalf("row %d: k=%d rowid=%d", i, r.At(i, 0), r.At(i, 1))
		}
		if r.At(i, 0) <= prev {
			t.Fatalf("row order broken at %d: %d after %d", i, r.At(i, 0), prev)
		}
		prev = r.At(i, 0)
	}
}

func TestFilterPredicates(t *testing.T) {
	m := ordersTable(64, 8)
	cases := []struct {
		name string
		pred Pred
		want func(i int) bool
	}{
		{"eq", Eq("g", 2), func(i int) bool { return i%4 == 2 }},
		{"ne", Ne("g", 2), func(i int) bool { return i%4 != 2 }},
		{"between", Between("k", 10, 20), func(i int) bool { return i >= 10 && i <= 20 }},
		{"or", Or(Lt("k", 5), Ge("k", 60)), func(i int) bool { return i < 5 || i >= 60 }},
		{"andnot", And(Gt("k", 9), Not(Between("k", 20, 50))), func(i int) bool {
			return i > 9 && !(i >= 20 && i <= 50)
		}},
		{"notor", Not(Or(Lt("k", 30), Eq("g", 1))), func(i int) bool { return i >= 30 && i%4 != 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runQ(t, New(m).Where(tc.pred).Select("k").Morsels(3))
			var want []int64
			for i := 0; i < 64; i++ {
				if tc.want(i) {
					want = append(want, int64(i))
				}
			}
			if !reflect.DeepEqual(r.Ints(0), want) {
				t.Fatalf("got %v want %v", r.Ints(0), want)
			}
		})
	}
}

func TestStringPredicate(t *testing.T) {
	c := custTable()
	r := runQ(t, New(c).Where(EqString("region", "north")).Select("id", "region"))
	if r.Len() != 2 || r.At(0, 0) != 0 || r.At(1, 0) != 2 {
		t.Fatalf("north ids wrong: %v", r.Ints(0))
	}
	if s := r.StringAt(0, 1); s != "north" {
		t.Fatalf("StringAt = %q", s)
	}
	// A string the dictionary never saw matches nothing...
	r = runQ(t, New(c).Where(EqString("region", "west")).Select("id"))
	if r.Len() != 0 {
		t.Fatalf("unknown string matched %d rows", r.Len())
	}
	// ...and its negation matches everything.
	r = runQ(t, New(c).Where(Not(EqString("region", "west"))).Select("id"))
	if r.Len() != 5 {
		t.Fatalf("negated unknown string matched %d rows", r.Len())
	}
}

func TestGroupByAggregate(t *testing.T) {
	m := ordersTable(100, 8)
	m.deleted[17] = true
	for _, morsels := range []int{1, 4} {
		r := runQ(t, New(m).
			Where(Ge("k", 10)).
			GroupBy("g").
			Aggregate(Sum("v"), Count(), Min("v"), Max("v"), Avg("v")).
			Morsels(morsels))
		wantCols := []string{"g", "sum(v)", "count()", "min(v)", "max(v)", "avg(v)"}
		if !reflect.DeepEqual(r.Columns(), wantCols) {
			t.Fatalf("columns = %v", r.Columns())
		}
		// Reference fold.
		type ref struct{ sum, cnt, mn, mx int64 }
		refs := map[int64]*ref{}
		for i := 10; i < 100; i++ {
			if i == 17 {
				continue
			}
			g, v := int64(i%4), int64((i*7)%100)
			a := refs[g]
			if a == nil {
				a = &ref{mn: math.MaxInt64, mx: math.MinInt64}
				refs[g] = a
			}
			a.sum += v
			a.cnt++
			if v < a.mn {
				a.mn = v
			}
			if v > a.mx {
				a.mx = v
			}
		}
		if r.Len() != len(refs) {
			t.Fatalf("groups = %d want %d", r.Len(), len(refs))
		}
		for i := 0; i < r.Len(); i++ {
			g := r.At(i, 0)
			if i > 0 && g <= r.At(i-1, 0) {
				t.Fatalf("groups unsorted")
			}
			a := refs[g]
			if r.At(i, 1) != a.sum || r.At(i, 2) != a.cnt || r.At(i, 3) != a.mn || r.At(i, 4) != a.mx {
				t.Fatalf("group %d: got (%d,%d,%d,%d) want %+v",
					g, r.At(i, 1), r.At(i, 2), r.At(i, 3), r.At(i, 4), *a)
			}
			wantAvg := float64(a.sum) / float64(a.cnt)
			if got := r.Float(i, 5); got != wantAvg {
				t.Fatalf("group %d avg = %v want %v", g, got, wantAvg)
			}
		}
	}
}

func TestGlobalAggregateEmpty(t *testing.T) {
	m := ordersTable(32, 8)
	r := runQ(t, New(m).Where(Gt("k", 1000)).Aggregate(Sum("v"), Count(), Min("v"), Max("v"), Avg("v")))
	if r.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", r.Len())
	}
	if r.At(0, 0) != 0 || r.At(0, 1) != 0 || r.At(0, 2) != math.MaxInt64 || r.At(0, 3) != math.MinInt64 {
		t.Fatalf("empty fold wrong: %v %v %v %v", r.At(0, 0), r.At(0, 1), r.At(0, 2), r.At(0, 3))
	}
	if r.Float(0, 4) != 0 {
		t.Fatalf("empty avg = %v", r.Float(0, 4))
	}
}

func TestBareCountFastPath(t *testing.T) {
	m := ordersTable(64, 8)
	m.deleted[1] = true
	m.deleted[2] = true
	r := runQ(t, New(m).Aggregate(Count()))
	if r.Len() != 1 || r.At(0, 0) != 62 {
		t.Fatalf("count = %d", r.At(0, 0))
	}
	if r.Stats.BlocksScanned != 0 || r.Stats.Morsels != 0 {
		t.Fatalf("bare count scanned blocks: %+v", r.Stats)
	}
}

func TestJoin(t *testing.T) {
	m := ordersTable(60, 8)
	m.deleted[12] = true
	c := custTable()
	r := runQ(t, New(m).
		Join(c, "cust", "id").
		Where(And(Ge("k", 5), EqString("region", "north"), Gt("credit", 5))).
		Select("k", "region", "credit").
		Morsels(4))
	var wantK []int64
	for i := 5; i < 60; i++ {
		if i == 12 {
			continue
		}
		id := i % 5
		region := []string{"north", "south", "north", "east", "south"}[id]
		credit := []int64{10, 20, 30, 40, 50}[id]
		if region == "north" && credit > 5 {
			wantK = append(wantK, int64(i))
		}
	}
	if !reflect.DeepEqual(r.Ints(0), wantK) {
		t.Fatalf("join keys got %v want %v", r.Ints(0), wantK)
	}
	for i := 0; i < r.Len(); i++ {
		if s := r.StringAt(i, 1); s != "north" {
			t.Fatalf("row %d region %q", i, s)
		}
	}
}

func TestJoinMixedConjunct(t *testing.T) {
	m := ordersTable(40, 8)
	c := custTable()
	// v > credit spans probe and build: must run post-join.
	r := runQ(t, New(m).
		Join(c, "cust", "id").
		Where(Gt("v", 0)).
		Where(And(Or(Lt("v", 1000), Eq("credit", -1)))). // mixed, vacuously true
		GroupBy("region").
		Aggregate(Count()).
		Morsels(2))
	total := int64(0)
	for i := 0; i < r.Len(); i++ {
		total += r.At(i, 1)
	}
	want := int64(0)
	for i := 0; i < 40; i++ {
		if (i*7)%100 > 0 {
			want++
		}
	}
	if total != want {
		t.Fatalf("joined count = %d want %d", total, want)
	}
}

func TestJoinAggregateOnBuildColumn(t *testing.T) {
	m := ordersTable(40, 8)
	c := custTable()
	r := runQ(t, New(m).Join(c, "cust", "id").GroupBy("g").Aggregate(Sum("credit")))
	refs := map[int64]int64{}
	for i := 0; i < 40; i++ {
		refs[int64(i%4)] += []int64{10, 20, 30, 40, 50}[i%5]
	}
	if r.Len() != 4 {
		t.Fatalf("groups = %d", r.Len())
	}
	for i := 0; i < 4; i++ {
		g := r.At(i, 0)
		if r.At(i, 1) != refs[g] {
			t.Fatalf("group %d sum(credit) = %d want %d", g, r.At(i, 1), refs[g])
		}
	}
}

// TestJoinFanOutSplitsBatches: a probe row with several build matches
// can overflow the join's output batch mid-row; the join resumes at the
// next match, so every match appears once, in probe then build order.
func TestJoinFanOutSplitsBatches(t *testing.T) {
	m := ordersTable(40, 2) // 8-row morsels and output batches
	m.deleted[9] = true
	ids := []int64{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	pay := make([]int64, len(ids))
	for i := range pay {
		pay[i] = int64(100 + i)
	}
	c := newMemTable("fan", 4).addInt("id", ids).addInt("pay", pay)
	for _, morsels := range []int{1, 3} {
		r := runQ(t, New(m).Join(c, "cust", "id").Select("k", "pay").Morsels(morsels))
		var wantK, wantPay []int64
		for k := 0; k < 40; k++ {
			if k == 9 {
				continue
			}
			for b, id := range ids {
				if id == int64(k%5) {
					wantK, wantPay = append(wantK, int64(k)), append(wantPay, pay[b])
				}
			}
		}
		if !reflect.DeepEqual(r.Ints(0), wantK) || !reflect.DeepEqual(r.Ints(1), wantPay) {
			t.Fatalf("morsels=%d:\nk   %v\npay %v\nwant k   %v\nwant pay %v", morsels, r.Ints(0), r.Ints(1), wantK, wantPay)
		}
	}
}

func TestZonePruning(t *testing.T) {
	m := ordersTable(256, 8) // k sorted: zones are tight
	pruned := runQ(t, New(m).Where(Between("k", 100, 110)).Select("k").Morsels(2))
	full := runQ(t, New(m).Where(Between("k", 100, 110)).Select("k").WithoutPruning().Morsels(2))
	if !reflect.DeepEqual(pruned.Ints(0), full.Ints(0)) {
		t.Fatalf("pruned result differs: %v vs %v", pruned.Ints(0), full.Ints(0))
	}
	if pruned.Stats.BlocksSkipped == 0 {
		t.Fatalf("no blocks skipped on selective sorted predicate: %+v", pruned.Stats)
	}
	if full.Stats.BlocksSkipped != 0 {
		t.Fatalf("WithoutPruning skipped blocks: %+v", full.Stats)
	}
	if pruned.Stats.MorselsSkipped == 0 {
		t.Fatalf("no whole morsels skipped: %+v", pruned.Stats)
	}
	if n := pruned.Stats.BlocksScanned + pruned.Stats.BlocksSkipped; n != full.Stats.BlocksScanned {
		t.Fatalf("block accounting: %d+%d != %d", pruned.Stats.BlocksScanned, pruned.Stats.BlocksSkipped, full.Stats.BlocksScanned)
	}
}

func TestRowIDPruning(t *testing.T) {
	m := ordersTable(256, 8)
	r := runQ(t, New(m).Where(Lt(RowID, 8)).Select("k"))
	if r.Len() != 8 {
		t.Fatalf("rows = %d", r.Len())
	}
	if r.Stats.BlocksSkipped == 0 {
		t.Fatalf("RowID ranges did not prune: %+v", r.Stats)
	}
}

func TestUnknownZonesScanEverything(t *testing.T) {
	m := ordersTable(128, 8)
	m.noZones = true
	r := runQ(t, New(m).Where(Between("k", 0, 3)).Select("k"))
	if r.Len() != 4 {
		t.Fatalf("rows = %d", r.Len())
	}
	if r.Stats.BlocksSkipped != 0 {
		t.Fatalf("skipped blocks with unknown zones: %+v", r.Stats)
	}
}

// TestMorselEquivalence: every query shape returns exactly the
// Morsels(1) result at any worker count, although each worker's
// pipeline moves to a new goroutine at every morsel — including a
// limited query, whose limiter needs a morsel's batches to stay
// consecutive within its pipeline.
func TestMorselEquivalence(t *testing.T) {
	base := ordersTable(300, 8)
	for i := 0; i < 300; i += 11 {
		base.deleted[i] = true
	}
	m := &idxMemTable{memTable: base, idxCol: 1} // index on "g"
	shapes := []struct {
		name  string
		build func() *Builder
	}{
		{"filter", func() *Builder { return New(m).Where(Or(Eq("g", 1), Gt("v", 80))).Select("k", "v") }},
		{"limit", func() *Builder { return New(m).Where(Gt("v", 50)).Select("k", RowID).Limit(37).WithoutPruning() }},
		{"join", func() *Builder {
			return New(m).Where(Gt("v", 30)).Join(custTable(), "cust", "id").Select("k", "credit", "region").WithoutPruning()
		}},
		{"index-eq", func() *Builder { return New(m).Where(Eq("g", 2)).Select("k", RowID) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			want := runQ(t, sh.build().Morsels(1))
			if want.Len() == 0 {
				t.Fatal("shape returns no rows")
			}
			for _, morsels := range []int{2, 4, 9} {
				r := runQ(t, sh.build().Morsels(morsels))
				if r.Stats.IndexRouted != (sh.name == "index-eq") {
					t.Fatalf("morsels=%d: IndexRouted = %v", morsels, r.Stats.IndexRouted)
				}
				for c := range want.Columns() {
					if !reflect.DeepEqual(r.Ints(c), want.Ints(c)) {
						t.Fatalf("morsels=%d column %d differs from morsels=1:\ngot:  %v\nwant: %v", morsels, c, r.Ints(c), want.Ints(c))
					}
				}
			}
		})
	}
}

func TestBindErrors(t *testing.T) {
	m := ordersTable(16, 8)
	c := custTable()
	cases := []struct {
		name string
		b    *Builder
	}{
		{"unknown column", New(m).Select("nope")},
		{"unknown pred column", New(m).Where(Eq("nope", 1))},
		{"groupby without aggregate", New(m).GroupBy("g")},
		{"select with aggregate", New(m).Select("k").Aggregate(Count())},
		{"eqstring on int", New(m).Where(EqString("k", "x"))},
		{"aggregate on string", New(m).Join(c, "cust", "id").Aggregate(Sum("region"))},
		{"unknown join key", New(m).Join(c, "cust", "nope")},
		{"join key type mismatch", New(m).Join(c, "g", "region")},
		{"nil table", New(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.b.Run(); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestEmptyTable(t *testing.T) {
	m := newMemTable("empty", 8).addInt("x", nil)
	r := runQ(t, New(m).Select("x"))
	if r.Len() != 0 {
		t.Fatalf("rows = %d", r.Len())
	}
	r = runQ(t, New(m).Aggregate(Sum("x"), Count()))
	if r.Len() != 1 || r.At(0, 0) != 0 || r.At(0, 1) != 0 {
		t.Fatalf("empty aggregate: %v", r.data)
	}
}

func TestQualifiedAndDuplicateNames(t *testing.T) {
	m := newMemTable("a", 8).addInt("id", []int64{0, 1, 2}).addInt("v", []int64{10, 11, 12})
	o := newMemTable("b", 8).addInt("id", []int64{0, 1, 2}).addInt("v", []int64{20, 21, 22})
	r := runQ(t, New(m).Join(o, "id", "id").Select("a.v", "b.v"))
	if !reflect.DeepEqual(r.Columns(), []string{"a.v", "b.v"}) {
		t.Fatalf("columns = %v", r.Columns())
	}
	for i := 0; i < 3; i++ {
		if r.At(i, 0) != int64(10+i) || r.At(i, 1) != int64(20+i) {
			t.Fatalf("row %d: %d,%d", i, r.At(i, 0), r.At(i, 1))
		}
	}
}
