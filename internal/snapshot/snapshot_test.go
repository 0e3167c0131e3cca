package snapshot

import (
	"math/rand"
	"testing"

	"ankerdb/internal/vmem"
)

const pageSize = 4096

// harness bundles a process with one strategy and a way to make
// strategy-appropriate source regions.
type harness struct {
	proc     *vmem.Process
	strategy Strategy
	region   func(t *testing.T, pages int) Region
}

func newHarness(t *testing.T, kind string) *harness {
	t.Helper()
	proc := vmem.NewProcess()
	anonRegion := func(t *testing.T, pages int) Region {
		t.Helper()
		addr, err := proc.Mmap(uint64(pages)*pageSize, vmem.ProtRead|vmem.ProtWrite, vmem.MapPrivate|vmem.MapAnonymous, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return Region{Addr: addr, Len: uint64(pages) * pageSize}
	}
	h := &harness{proc: proc, region: anonRegion}
	s, err := New(kind, proc)
	if err != nil {
		t.Fatal(err)
	}
	h.strategy = s
	if r, ok := s.(RegionAllocator); ok {
		h.region = func(t *testing.T, pages int) Region {
			t.Helper()
			reg, _, err := r.NewRegion("col", uint64(pages)*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return reg
		}
	}
	return h
}

// allStrategies lists every Kind with the label its subtests run under:
// the paper's name for the technique.
var allStrategies = []struct{ label, kind string }{
	{"physical", KindPhysical},
	{"fork", KindFork},
	{"rewiring", KindRewired},
	{"vm_snapshot", KindVMSnap},
}

func fillRegion(p *vmem.Process, r Region, seed uint64) {
	for off := uint64(0); off < r.Len; off += 8 {
		p.Store(r.Addr+off, seed+off/8)
	}
}

// TestStrategyNames: a strategy's Name is the Kind New built it from,
// and New refuses any other name.
func TestStrategyNames(t *testing.T) {
	for _, s := range allStrategies {
		h := newHarness(t, s.kind)
		if got := h.strategy.Name(); got != s.kind {
			t.Errorf("Name() = %q, want %q", got, s.kind)
		}
	}
	if _, err := New("rewiring", vmem.NewProcess()); err == nil {
		t.Error(`New("rewiring") succeeded; only Kind names construct`)
	}
}

func TestSnapshotSeesSourceContent(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.label, func(t *testing.T) {
			h := newHarness(t, s.kind)
			reg := h.region(t, 8)
			fillRegion(h.proc, reg, 1000)
			snap, err := h.strategy.Snapshot([]Region{reg})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			sr := snap.Regions()[0]
			reader := snap.Reader()
			for off := uint64(0); off < sr.Len; off += 8 * 101 {
				if got, want := reader.Load(sr.Addr+off), 1000+off/8; got != want {
					t.Fatalf("snapshot word at +%d = %d, want %d", off, got, want)
				}
			}
		})
	}
}

func TestSourceWritesInvisibleInSnapshot(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.label, func(t *testing.T) {
			h := newHarness(t, s.kind)
			reg := h.region(t, 8)
			fillRegion(h.proc, reg, 0)
			snap, err := h.strategy.Snapshot([]Region{reg})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			// Scatter writes over the source after the snapshot.
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200; i++ {
				off := uint64(rng.Intn(int(reg.Len/8))) * 8
				h.proc.Store(reg.Addr+off, ^uint64(0))
			}
			sr := snap.Regions()[0]
			reader := snap.Reader()
			for off := uint64(0); off < sr.Len; off += 8 {
				if got, want := reader.Load(sr.Addr+off), off/8; got != want {
					t.Fatalf("snapshot word at +%d = %d, want %d (source write leaked)", off, got, want)
				}
			}
			// And the source does see its own writes.
			h.proc.Store(reg.Addr, 77)
			if got := h.proc.Load(reg.Addr); got != 77 {
				t.Fatalf("source lost its own write: %d", got)
			}
		})
	}
}

func TestMultiRegionSnapshot(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.label, func(t *testing.T) {
			h := newHarness(t, s.kind)
			regs := []Region{h.region(t, 2), h.region(t, 4), h.region(t, 3)}
			for i, r := range regs {
				fillRegion(h.proc, r, uint64(i)*10000)
			}
			snap, err := h.strategy.Snapshot(regs)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			if len(snap.Regions()) != 3 {
				t.Fatalf("got %d snapshot regions, want 3", len(snap.Regions()))
			}
			reader := snap.Reader()
			for i, sr := range snap.Regions() {
				if sr.Len != regs[i].Len {
					t.Fatalf("region %d length %d, want %d", i, sr.Len, regs[i].Len)
				}
				for off := uint64(0); off < sr.Len; off += 8 * 63 {
					if got, want := reader.Load(sr.Addr+off), uint64(i)*10000+off/8; got != want {
						t.Fatalf("region %d word at +%d = %d, want %d", i, off, got, want)
					}
				}
			}
		})
	}
}

func TestEmptyAndInvalidRegions(t *testing.T) {
	for _, s := range allStrategies {
		h := newHarness(t, s.kind)
		if _, err := h.strategy.Snapshot(nil); err == nil {
			t.Errorf("%s: snapshot of no regions succeeded", s.kind)
		}
		if _, err := h.strategy.Snapshot([]Region{{Addr: 4096, Len: 0}}); err == nil {
			t.Errorf("%s: snapshot of empty region succeeded", s.kind)
		}
	}
}

func TestReleaseFreesPages(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.label, func(t *testing.T) {
			h := newHarness(t, s.kind)
			reg := h.region(t, 16)
			fillRegion(h.proc, reg, 0)
			live := h.proc.Allocator().Stats().Live
			snap, err := h.strategy.Snapshot([]Region{reg})
			if err != nil {
				t.Fatal(err)
			}
			snap.Release()
			snap.Release() // idempotent
			if got := h.proc.Allocator().Stats().Live; got != live {
				t.Fatalf("live pages %d -> %d across snapshot+release", live, got)
			}
		})
	}
}

func TestVirtualStrategiesShareUntilWrite(t *testing.T) {
	// The three virtual techniques must not copy data at creation time.
	for _, s := range allStrategies[1:] {
		t.Run(s.label, func(t *testing.T) {
			h := newHarness(t, s.kind)
			reg := h.region(t, 64)
			fillRegion(h.proc, reg, 0)
			live := h.proc.Allocator().Stats().Live
			snap, err := h.strategy.Snapshot([]Region{reg})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			if got := h.proc.Allocator().Stats().Live; got != live {
				t.Fatalf("virtual snapshot allocated %d pages at creation", got-live)
			}
			// One write separates exactly one page.
			h.proc.Store(reg.Addr+8, ^uint64(0))
			if got := h.proc.Allocator().Stats().Live; got != live+1 {
				t.Fatalf("one write separated %d pages, want 1", got-live)
			}
		})
	}
}

func TestPhysicalCopiesEagerly(t *testing.T) {
	h := newHarness(t, KindPhysical)
	reg := h.region(t, 16)
	fillRegion(h.proc, reg, 0)
	live := h.proc.Allocator().Stats().Live
	snap, err := h.strategy.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if got := h.proc.Allocator().Stats().Live; got != live+16 {
		t.Fatalf("physical snapshot allocated %d pages, want 16", got-live)
	}
}

func TestRewiringVMACountGrowsWithWrites(t *testing.T) {
	h := newHarness(t, KindRewired)
	reg := h.region(t, 32)
	fillRegion(h.proc, reg, 0)
	snap, err := h.strategy.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	before := h.proc.NumVMAsIn(reg.Addr, reg.Len)
	if before != 1 {
		t.Fatalf("source VMAs before writes = %d, want 1", before)
	}
	// Each interior-page write splits the source VMA (net +2 per write,
	// as in Table 1: 500 writes -> 995 VMAs).
	h.proc.Store(reg.Addr+5*pageSize, 1)
	h.proc.Store(reg.Addr+10*pageSize, 1)
	after := h.proc.NumVMAsIn(reg.Addr, reg.Len)
	if after != 5 {
		t.Fatalf("source VMAs after 2 interior writes = %d, want 5", after)
	}
}

func TestRewiringSecondSnapshotAfterWrites(t *testing.T) {
	h := newHarness(t, KindRewired)
	reg := h.region(t, 8)
	fillRegion(h.proc, reg, 0)
	s1, err := h.strategy.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Release()
	h.proc.Store(reg.Addr+3*pageSize, 111) // manual COW, rewires page 3
	s2, err := h.strategy.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	r1, r2 := s1.Regions()[0], s2.Regions()[0]
	// s1 predates the write, s2 sees it.
	if got := h.proc.Load(r1.Addr + 3*pageSize); got != 3*pageSize/8 {
		t.Fatalf("old snapshot word = %d, want %d", got, 3*pageSize/8)
	}
	if got := h.proc.Load(r2.Addr + 3*pageSize); got != 111 {
		t.Fatalf("new snapshot word = %d, want 111", got)
	}
	// Writes after s2 are invisible in both.
	h.proc.Store(reg.Addr+3*pageSize, 222)
	if got := h.proc.Load(r2.Addr + 3*pageSize); got != 111 {
		t.Fatalf("new snapshot leaked later write: %d", got)
	}
}

func TestVMSnapSnapshotInto(t *testing.T) {
	h := newHarness(t, KindVMSnap)
	v := h.strategy.(*VMSnap)
	reg := h.region(t, 4)
	fillRegion(h.proc, reg, 500)
	snap, err := v.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	sr := snap.Regions()[0]
	h.proc.Store(reg.Addr, 999)
	// Recycle the stale snapshot area with a fresh snapshot.
	if err := v.SnapshotInto(sr, reg); err != nil {
		t.Fatal(err)
	}
	if got := h.proc.Load(sr.Addr); got != 999 {
		t.Fatalf("recycled snapshot word = %d, want 999", got)
	}
}

func TestForkSnapshotIndependentOfRequestedRegions(t *testing.T) {
	h := newHarness(t, KindFork)
	regs := []Region{h.region(t, 4), h.region(t, 4)}
	for _, r := range regs {
		fillRegion(h.proc, r, 7)
	}
	st0 := h.proc.Stats()
	one, err := h.strategy.Snapshot(regs[:1])
	if err != nil {
		t.Fatal(err)
	}
	mid := h.proc.Stats()
	one.Release()
	both, err := h.strategy.Snapshot(regs)
	if err != nil {
		t.Fatal(err)
	}
	end := h.proc.Stats()
	both.Release()
	if a, b := mid.PTECopies-st0.PTECopies, end.PTECopies-mid.PTECopies; a != b {
		t.Fatalf("fork PTE copies differ with requested regions: %d vs %d", a, b)
	}
}
