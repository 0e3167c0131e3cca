package vmem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ankerdb/internal/cost"
	"ankerdb/internal/mmfile"
	"ankerdb/internal/phys"
)

const ps = phys.DefaultPageSize

func newProc(t *testing.T) *Process {
	t.Helper()
	return NewProcess()
}

// checkInvariants asserts structural health of the VMA list.
func checkInvariants(t *testing.T, p *Process) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	for i, v := range p.vmas {
		if v.start >= v.end {
			t.Fatalf("vma %d empty or inverted: %s", i, v)
		}
		if v.start%p.pageSize != 0 || v.end%p.pageSize != 0 {
			t.Fatalf("vma %d unaligned: %s", i, v)
		}
		if i > 0 {
			prev := p.vmas[i-1]
			if prev.end > v.start {
				t.Fatalf("vmas %d,%d overlap: %s / %s", i-1, i, prev, v)
			}
		}
	}
	// Every present PTE must lie inside some VMA.
	for key, s := range p.pt {
		base := key << slabBits
		for i := range s.e {
			if s.e[i].flags&ptePresent == 0 {
				continue
			}
			addr := (base + uint64(i)) * p.pageSize
			if p.findVMA(addr) == nil {
				t.Fatalf("present PTE at %#x outside any VMA", addr)
			}
		}
	}
}

func mustMmap(t *testing.T, p *Process, length uint64, prot Prot, flags Flags, f *mmfile.File, off uint64) uint64 {
	t.Helper()
	addr, err := p.Mmap(length, prot, flags, f, off)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	return addr
}

func anonMap(t *testing.T, p *Process, pages int) uint64 {
	t.Helper()
	return mustMmap(t, p, uint64(pages)*ps, ProtRead|ProtWrite, MapPrivate|MapAnonymous, nil, 0)
}

func TestMmapValidation(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("f", p.Allocator())
	cases := []struct {
		name   string
		length uint64
		flags  Flags
		file   *mmfile.File
		off    uint64
		want   error
	}{
		{"zero length", 0, MapPrivate | MapAnonymous, nil, 0, ErrUnaligned},
		{"unaligned length", ps + 1, MapPrivate | MapAnonymous, nil, 0, ErrUnaligned},
		{"no sharing flag", ps, MapAnonymous, nil, 0, ErrInvalid},
		{"both sharing flags", ps, MapPrivate | MapShared | MapAnonymous, nil, 0, ErrInvalid},
		{"anon without flag", ps, MapPrivate, nil, 0, ErrInvalid},
		{"anon shared", ps, MapShared | MapAnonymous, nil, 0, ErrInvalid},
		{"file with anon flag", ps, MapShared | MapAnonymous, f, 0, ErrInvalid},
		{"unaligned offset", ps, MapShared, f, 17, ErrUnaligned},
	}
	for _, c := range cases {
		if _, err := p.Mmap(c.length, ProtRead, c.flags, c.file, c.off); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestAnonReadIsZero(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 4)
	for i := uint64(0); i < 4*ps/8; i += 511 {
		if v := p.Load(addr + i*8); v != 0 {
			t.Fatalf("fresh anon word %d = %d, want 0", i, v)
		}
	}
	// Reads map the shared zero page: no private pages allocated.
	if got := p.Stats().COWBreaks; got != 0 {
		t.Fatalf("COW breaks = %d after pure reads, want 0", got)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 8)
	for i := uint64(0); i < 8*ps/8; i++ {
		p.Store(addr+i*8, i*3+1)
	}
	for i := uint64(0); i < 8*ps/8; i++ {
		if v := p.Load(addr + i*8); v != i*3+1 {
			t.Fatalf("word %d = %d, want %d", i, v, i*3+1)
		}
	}
	checkInvariants(t, p)
}

func TestStoreAfterZeroPageReadBreaksCOW(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 1)
	if v := p.Load(addr); v != 0 {
		t.Fatalf("load = %d, want 0", v)
	}
	p.Store(addr, 9)
	if v := p.Load(addr); v != 9 {
		t.Fatalf("load after store = %d, want 9", v)
	}
	z := p.Allocator().ZeroPage()
	if z.Words[0] != 0 {
		t.Fatal("the shared zero page was written through")
	}
}

func TestLoadUnmappedPanics(t *testing.T) {
	p := newProc(t)
	defer func() {
		if recover() == nil {
			t.Fatal("load of unmapped address did not panic")
		}
	}()
	p.Load(1 << 30)
}

func TestUnalignedLoadPanics(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned load did not panic")
		}
	}()
	p.Load(addr + 3)
}

func TestMunmapReleasesPages(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 16)
	for i := uint64(0); i < 16; i++ {
		p.Store(addr+i*ps, 1)
	}
	live := p.Allocator().Stats().Live
	if live != 16 {
		t.Fatalf("live = %d, want 16", live)
	}
	if err := p.Munmap(addr, 16*ps); err != nil {
		t.Fatal(err)
	}
	if live := p.Allocator().Stats().Live; live != 0 {
		t.Fatalf("live = %d after munmap, want 0", live)
	}
	checkInvariants(t, p)
}

func TestMunmapPartialSplits(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 10)
	// Unmap the middle four pages.
	if err := p.Munmap(addr+3*ps, 4*ps); err != nil {
		t.Fatal(err)
	}
	if n := p.NumVMAsIn(addr, 10*ps); n != 2 {
		t.Fatalf("VMAs after punching hole = %d, want 2", n)
	}
	p.Store(addr, 5)
	p.Store(addr+9*ps, 6)
	func() {
		defer func() { recover() }()
		p.Load(addr + 4*ps)
		t.Fatal("load in hole did not panic")
	}()
	checkInvariants(t, p)
}

func TestFileBackedSharedMapping(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("data", p.Allocator())
	f.Truncate(4)
	a1 := mustMmap(t, p, 4*ps, ProtRead|ProtWrite, MapShared, f, 0)
	a2 := mustMmap(t, p, 4*ps, ProtRead|ProtWrite, MapShared, f, 0)
	p.Store(a1+8, 123)
	if v := p.Load(a2 + 8); v != 123 {
		t.Fatalf("shared mapping: second view = %d, want 123", v)
	}
	if f.PageAt(0).Words[1] != 123 {
		t.Fatal("store did not reach the file")
	}
}

func TestFileBackedPrivateMappingCOW(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("data", p.Allocator())
	f.Truncate(1)
	f.PageAt(0).Words[0] = 7
	a := mustMmap(t, p, ps, ProtRead|ProtWrite, MapPrivate, f, 0)
	if v := p.Load(a); v != 7 {
		t.Fatalf("private view = %d, want 7", v)
	}
	p.Store(a, 8)
	if f.PageAt(0).Words[0] != 7 {
		t.Fatal("private store leaked into the file")
	}
	if v := p.Load(a); v != 8 {
		t.Fatalf("private view after store = %d, want 8", v)
	}
}

func TestVMAMerging(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("data", p.Allocator())
	f.Truncate(8)
	// Two adjacent mappings of contiguous file ranges must merge.
	a1 := mustMmap(t, p, 2*ps, ProtRead|ProtWrite, MapShared, f, 0)
	a2 := mustMmap(t, p, 2*ps, ProtRead|ProtWrite, MapShared, f, 2*ps)
	if a2 != a1+2*ps {
		t.Fatalf("expected adjacent reservation, got %#x after %#x", a2, a1)
	}
	if n := p.NumVMAsIn(a1, 4*ps); n != 1 {
		t.Fatalf("adjacent compatible mappings: %d VMAs, want 1 (merged)", n)
	}
	// A discontiguous file offset must not merge.
	a3 := mustMmap(t, p, ps, ProtRead|ProtWrite, MapShared, f, 6*ps)
	if n := p.NumVMAsIn(a1, a3+ps-a1); n != 2 {
		t.Fatalf("discontiguous offsets: %d VMAs, want 2", n)
	}
	checkInvariants(t, p)
}

func TestMprotectSplitsAndWriteProtects(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 6)
	for i := uint64(0); i < 6; i++ {
		p.Store(addr+i*ps, i)
	}
	if err := p.Mprotect(addr+2*ps, 2*ps, ProtRead); err != nil {
		t.Fatal(err)
	}
	if n := p.NumVMAsIn(addr, 6*ps); n != 3 {
		t.Fatalf("VMAs after mprotect = %d, want 3", n)
	}
	// Reads still fine.
	if v := p.Load(addr + 2*ps); v != 2 {
		t.Fatalf("read-only page = %d, want 2", v)
	}
	// Store must panic (no fault hook installed).
	func() {
		defer func() { recover() }()
		p.Store(addr+2*ps, 99)
		t.Fatal("store to read-only page did not panic")
	}()
	// Restore and verify lazily-restored write access.
	if err := p.Mprotect(addr+2*ps, 2*ps, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	p.Store(addr+2*ps, 99)
	if v := p.Load(addr + 2*ps); v != 99 {
		t.Fatalf("after restore = %d, want 99", v)
	}
	if n := p.NumVMAsIn(addr, 6*ps); n != 1 {
		t.Fatalf("VMAs after restore = %d, want 1 (re-merged)", n)
	}
	checkInvariants(t, p)
}

func TestMprotectUnmappedFails(t *testing.T) {
	p := newProc(t)
	if err := p.Mprotect(1<<30, ps, ProtRead); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

func TestFaultHookRewiresPage(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("col", p.Allocator())
	f.Truncate(4)
	addr := mustMmap(t, p, 4*ps, ProtRead|ProtWrite, MapShared, f, 0)
	for i := uint64(0); i < 4; i++ {
		p.Store(addr+i*ps, 100+i)
	}
	// Snapshot the column rewiring-style: second view + write-protect.
	snap := mustMmap(t, p, 4*ps, ProtRead, MapShared, f, 0)
	if err := p.Mprotect(addr, 4*ps, ProtRead); err != nil {
		t.Fatal(err)
	}
	hookCalls := 0
	p.SetFaultHook(func(pr *Process, fa uint64) bool {
		hookCalls++
		file, off, ok := pr.Translation(fa)
		if !ok {
			t.Errorf("no translation for fault at %#x", fa)
			return false
		}
		newOff, newPage := file.AppendPage()
		copy(newPage.Words, file.PageAt(off).Words)
		pageAddr := fa &^ (pr.PageSize() - 1)
		if err := pr.MmapFixed(pageAddr, pr.PageSize(), ProtRead|ProtWrite, MapShared, file, newOff); err != nil {
			t.Errorf("rewire mmap: %v", err)
			return false
		}
		return true
	})
	p.Store(addr+2*ps, 999) // triggers the hook
	if hookCalls != 1 {
		t.Fatalf("hook calls = %d, want 1", hookCalls)
	}
	if v := p.Load(addr + 2*ps); v != 999 {
		t.Fatalf("source after rewired write = %d, want 999", v)
	}
	if v := p.Load(snap + 2*ps); v != 102 {
		t.Fatalf("snapshot after source write = %d, want 102 (isolation broken)", v)
	}
	// The rewire split the source VMA.
	if n := p.NumVMAsIn(addr, 4*ps); n != 3 {
		t.Fatalf("source VMAs after one rewire = %d, want 3", n)
	}
	checkInvariants(t, p)
}

func TestForkSharesThenIsolates(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 8)
	for i := uint64(0); i < 8; i++ {
		p.Store(addr+i*ps, 10+i)
	}
	liveBefore := p.Allocator().Stats().Live
	child := p.Fork()
	if live := p.Allocator().Stats().Live; live != liveBefore {
		t.Fatalf("fork allocated pages: live %d -> %d", liveBefore, live)
	}
	for i := uint64(0); i < 8; i++ {
		if v := child.Load(addr + i*ps); v != 10+i {
			t.Fatalf("child word %d = %d, want %d", i, v, 10+i)
		}
	}
	// Writes are isolated in both directions.
	p.Store(addr, 111)
	child.Store(addr+ps, 222)
	if v := child.Load(addr); v != 10 {
		t.Fatalf("child sees parent write: %d", v)
	}
	if v := p.Load(addr + ps); v != 11 {
		t.Fatalf("parent sees child write: %d", v)
	}
	child.Destroy()
	p.Store(addr+2*ps, 333) // page now exclusively owned again
	if v := p.Load(addr + 2*ps); v != 333 {
		t.Fatalf("parent after child destroy = %d", v)
	}
	checkInvariants(t, p)
}

func TestForkCopiesAllMappings(t *testing.T) {
	p := newProc(t)
	a1 := anonMap(t, p, 4)
	a2 := anonMap(t, p, 4)
	p.Store(a1, 1)
	p.Store(a2, 2)
	st0 := p.Stats()
	child := p.Fork()
	st1 := p.Stats()
	if st1.PTECopies-st0.PTECopies != 2 {
		t.Fatalf("fork copied %d PTEs, want 2 (only faulted pages)", st1.PTECopies-st0.PTECopies)
	}
	if child.NumVMAs() != p.NumVMAs() {
		t.Fatalf("child has %d VMAs, parent %d", child.NumVMAs(), p.NumVMAs())
	}
}

func TestVMSnapshotBasic(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 8)
	for i := uint64(0); i < 8*ps/8; i++ {
		p.Store(addr+i*8, i^0xabc)
	}
	snap, err := p.VMSnapshot(0, addr, 8*ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8*ps/8; i += 7 {
		if v := p.Load(snap + i*8); v != i^0xabc {
			t.Fatalf("snapshot word %d = %d, want %d", i, v, i^0xabc)
		}
	}
	// Isolation both ways.
	p.Store(addr, 1)
	p.Store(snap+8, 2)
	if v := p.Load(snap); v != 0^0xabc {
		t.Fatalf("snapshot saw source write: %d", v)
	}
	if v := p.Load(addr + 8); v != 1^0xabc {
		t.Fatalf("source saw snapshot write: %d", v)
	}
	checkInvariants(t, p)
}

func TestVMSnapshotSharesPhysicalPages(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 64)
	for i := uint64(0); i < 64; i++ {
		p.Store(addr+i*ps, i)
	}
	live := p.Allocator().Stats().Live
	snap, err := p.VMSnapshot(0, addr, 64*ps)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Allocator().Stats().Live; got != live {
		t.Fatalf("vm_snapshot allocated %d pages, want 0", got-live)
	}
	// One write separates exactly one page.
	p.Store(addr, 99)
	if got := p.Allocator().Stats().Live; got != live+1 {
		t.Fatalf("after one write: %d new pages, want 1", got-live)
	}
	_ = snap
}

func TestVMSnapshotErrors(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 4)
	if _, err := p.VMSnapshot(0, addr+1, ps); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned src: %v", err)
	}
	if _, err := p.VMSnapshot(0, addr, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero length: %v", err)
	}
	if _, err := p.VMSnapshot(0, 1<<40, ps); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("unmapped src: %v", err)
	}
	// Partially mapped source must fail too.
	if _, err := p.VMSnapshot(0, addr, 8*ps); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("partially mapped src: %v", err)
	}
	// Destination not reserved.
	if _, err := p.VMSnapshot(1<<40, addr, 4*ps); !errors.Is(err, ErrNoMem) {
		t.Fatalf("unreserved dst: %v", err)
	}
	// Overlapping ranges.
	if _, err := p.VMSnapshot(addr+ps, addr, 2*ps); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overlap: %v", err)
	}
}

func TestVMSnapshotIntoExistingArea(t *testing.T) {
	p := newProc(t)
	src := anonMap(t, p, 4)
	dst := anonMap(t, p, 4)
	for i := uint64(0); i < 4; i++ {
		p.Store(src+i*ps, 100+i)
		p.Store(dst+i*ps, 55) // stale snapshot content to recycle
	}
	liveBefore := p.Allocator().Stats().Live
	got, err := p.VMSnapshot(dst, src, 4*ps)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Fatalf("returned %#x, want dst %#x", got, dst)
	}
	for i := uint64(0); i < 4; i++ {
		if v := p.Load(dst + i*ps); v != 100+i {
			t.Fatalf("recycled dst word %d = %d, want %d", i, v, 100+i)
		}
	}
	// The four stale private pages were released.
	if live := p.Allocator().Stats().Live; live != liveBefore-4 {
		t.Fatalf("live = %d, want %d (stale pages released)", live, liveBefore-4)
	}
	checkInvariants(t, p)
}

func TestVMSnapshotSplitsBorderVMAs(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 10)
	p.Store(addr, 1)
	if n := p.NumVMAsIn(addr, 10*ps); n != 1 {
		t.Fatalf("precondition: %d VMAs", n)
	}
	// Snapshot the middle: borders must split (appendix step 3).
	if _, err := p.VMSnapshot(0, addr+2*ps, 4*ps); err != nil {
		t.Fatal(err)
	}
	if n := p.NumVMAsIn(addr, 10*ps); n != 3 {
		t.Fatalf("source VMAs after border split = %d, want 3", n)
	}
	checkInvariants(t, p)
}

func TestVMSnapshotOfFileBackedSharedArea(t *testing.T) {
	p := newProc(t)
	f := mmfile.Create("col", p.Allocator())
	f.Truncate(2)
	src := mustMmap(t, p, 2*ps, ProtRead|ProtWrite, MapShared, f, 0)
	p.Store(src, 5)
	snap, err := p.VMSnapshot(0, src, 2*ps)
	if err != nil {
		t.Fatal(err)
	}
	// Shared semantics are preserved: the snapshot is another view of
	// the file, so writes remain visible (the paper keeps the source
	// semantics; isolation for shared areas is the caller's business).
	p.Store(src+8, 6)
	if v := p.Load(snap + 8); v != 6 {
		t.Fatalf("shared snapshot view = %d, want 6", v)
	}
}

func TestVMSnapshotChainedSnapshots(t *testing.T) {
	// Snapshot of a snapshot: generations C, C', C'' as in Figure 1.
	p := newProc(t)
	c := anonMap(t, p, 4)
	p.Store(c, 1)
	c1, err := p.VMSnapshot(0, c, 4*ps)
	if err != nil {
		t.Fatal(err)
	}
	p.Store(c1, 2)
	c2, err := p.VMSnapshot(0, c1, 4*ps)
	if err != nil {
		t.Fatal(err)
	}
	p.Store(c2, 3)
	if v := p.Load(c); v != 1 {
		t.Fatalf("C = %d, want 1", v)
	}
	if v := p.Load(c1); v != 2 {
		t.Fatalf("C' = %d, want 2", v)
	}
	if v := p.Load(c2); v != 3 {
		t.Fatalf("C'' = %d, want 3", v)
	}
}

func TestResolvePages(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 4)
	p.Store(addr, 42)
	pages := p.ResolvePages(addr, 4)
	if len(pages) != 4 {
		t.Fatalf("got %d pages", len(pages))
	}
	if pages[0].Words[0] != 42 {
		t.Fatalf("page 0 word 0 = %d, want 42", pages[0].Words[0])
	}
	for i, pg := range pages {
		if pg == nil {
			t.Fatalf("page %d nil", i)
		}
	}
}

func TestReadWriteWords(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 3)
	src := make([]uint64, 3*ps/8)
	for i := range src {
		src[i] = uint64(i) * 7
	}
	p.WriteWords(addr, src)
	dst := make([]uint64, len(src))
	p.ReadWords(addr, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d = %d, want %d", i, dst[i], src[i])
		}
	}
	// Offsets that straddle page boundaries.
	p.WriteWords(addr+ps-16, []uint64{1, 2, 3, 4})
	var got [4]uint64
	p.ReadWords(addr+ps-16, got[:])
	if got != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("straddling read = %v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 2)
	p.Store(addr, 1)
	p.Store(addr+ps, 1)
	if _, err := p.VMSnapshot(0, addr, 2*ps); err != nil {
		t.Fatal(err)
	}
	p.Store(addr, 2) // COW break
	st := p.Stats()
	if st.Mmaps != 1 || st.VMSnapshots != 1 {
		t.Fatalf("mmaps=%d vmsnapshots=%d", st.Mmaps, st.VMSnapshots)
	}
	if st.PTECopies != 2 {
		t.Fatalf("pte copies = %d, want 2", st.PTECopies)
	}
	if st.COWBreaks != 1 {
		t.Fatalf("cow breaks = %d, want 1", st.COWBreaks)
	}
	if st.WordsCopied != ps/8 {
		t.Fatalf("words copied = %d, want %d", st.WordsCopied, ps/8)
	}
	if st.Syscalls == 0 {
		t.Fatal("no syscalls counted")
	}
}

// TestSimTimeScriptedSequence: simulated kernel time is exactly the
// counted events priced by the model — one charge per system call, VMA
// operation, minor fault, COW break and reflected signal, no others.
func TestSimTimeScriptedSequence(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 4)                               // syscall, VMA created
	p.Load(addr)                                           // read fault: zero page
	p.Store(addr, 1)                                       // COW break off the zero page
	p.Store(addr+ps, 1)                                    // write fault
	if _, err := p.VMSnapshot(0, addr, 4*ps); err != nil { // syscall, VMA copied
		t.Fatal(err)
	}
	p.Store(addr, 2)                                         // COW break against the snapshot
	if err := p.Mprotect(addr, 4*ps, ProtRead); err != nil { // syscall, VMA reprotected
		t.Fatal(err)
	}
	p.SetFaultHook(func(pr *Process, fa uint64) bool {
		// syscall, two splits, one VMA reprotected
		return pr.Mprotect(fa&^(ps-1), ps, ProtRead|ProtWrite) == nil
	})
	p.Store(addr+2*ps, 3)                        // signal, then a write fault
	if err := p.Munmap(addr, 4*ps); err != nil { // syscall, three VMAs removed
		t.Fatal(err)
	}

	st := p.Stats()
	got := [5]uint64{st.Syscalls, st.VMAOps, st.MinorFaults, st.COWBreaks, st.SignalHooks}
	if want := [5]uint64{5, 9, 3, 2, 1}; got != want {
		t.Fatalf("syscalls, VMA ops, minor faults, COW breaks, signals = %v, want %v", got, want)
	}
	// One decimal digit per charge class makes a miscount name itself.
	m := cost.Model{SyscallEntry: 1000, VMAOp: 100, PageFault: 10, SignalDelivery: 1}
	if got, want := st.SimTime(m), time.Duration(5*1000+9*100+(3+2)*10+1); got != want {
		t.Fatalf("SimTime = %v, want %v", got, want)
	}
	if got, want := st.SimTime(cost.Default), 5*600*time.Nanosecond+9*100*time.Nanosecond+5*250*time.Nanosecond+1500*time.Nanosecond; got != want {
		t.Fatalf("SimTime(Default) = %v, want %v", got, want)
	}
	if got := st.SimTime(cost.Zero); got != 0 {
		t.Fatalf("SimTime(Zero) = %v, want 0", got)
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 32)
	for i := uint64(0); i < 32; i++ {
		p.Store(addr+i*ps, i)
	}
	if _, err := p.VMSnapshot(0, addr, 32*ps); err != nil {
		t.Fatal(err)
	}
	p.Destroy()
	if live := p.Allocator().Stats().Live; live != 0 {
		t.Fatalf("live = %d after Destroy, want 0", live)
	}
}

// Property: a vm_snapshot is immutable under any sequence of writes to
// the source, and the source is immutable under writes to the snapshot.
func TestPropertySnapshotIsolation(t *testing.T) {
	const pages = 16
	f := func(writes []uint16, toSnap bool) bool {
		p := NewProcess()
		addr, err := p.Mmap(pages*ps, ProtRead|ProtWrite, MapPrivate|MapAnonymous, nil, 0)
		if err != nil {
			return false
		}
		words := uint64(pages * ps / 8)
		for i := uint64(0); i < words; i += 64 {
			p.Store(addr+i*8, i)
		}
		snap, err := p.VMSnapshot(0, addr, pages*ps)
		if err != nil {
			return false
		}
		writeBase, readBase := addr, snap
		if toSnap {
			writeBase, readBase = snap, addr
		}
		for _, w := range writes {
			off := (uint64(w) % words) * 8
			p.Store(writeBase+off, 0xffff_ffff_ffff_ffff)
		}
		for i := uint64(0); i < words; i++ {
			want := uint64(0)
			if i%64 == 0 {
				want = i
			}
			if v := p.Load(readBase + i*8); v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: random mmap/munmap/mprotect sequences keep the VMA list
// sorted, non-overlapping and canonically merged.
func TestPropertyVMAInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newProc(t)
	var mapped []uint64
	for op := 0; op < 400; op++ {
		switch rng.Intn(4) {
		case 0, 1:
			n := uint64(rng.Intn(16) + 1)
			addr := anonMap(t, p, int(n))
			for i := uint64(0); i < n; i += 2 {
				p.Store(addr+i*ps, uint64(op))
			}
			mapped = append(mapped, addr, n)
		case 2:
			if len(mapped) == 0 {
				continue
			}
			k := rng.Intn(len(mapped)/2) * 2
			addr, n := mapped[k], mapped[k+1]
			off := uint64(rng.Intn(int(n)))
			ln := uint64(rng.Intn(int(n-off))) + 1
			if err := p.Munmap(addr+off*ps, ln*ps); err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(mapped) == 0 {
				continue
			}
			k := rng.Intn(len(mapped)/2) * 2
			addr, n := mapped[k], mapped[k+1]
			prot := ProtRead
			if rng.Intn(2) == 0 {
				prot |= ProtWrite
			}
			// The region may be partially unmapped; ignore failures.
			_ = p.Mprotect(addr, n*ps, prot)
		}
		checkInvariants(t, p)
	}
}

func TestConcurrentLoadsDuringSnapshotAndWrites(t *testing.T) {
	p := newProc(t)
	addr := anonMap(t, p, 64)
	words := uint64(64 * ps / 8)
	for i := uint64(0); i < words; i++ {
		p.Store(addr+i*8, 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 20; k++ {
			s, err := p.VMSnapshot(0, addr, 64*ps)
			if err != nil {
				t.Error(err)
				return
			}
			// Snapshot of a consistent all-ones or all-twos mix: each
			// word must be 1 or 2, never torn.
			for i := uint64(0); i < words; i += 37 {
				if v := p.Load(s + i*8); v != 1 && v != 2 {
					t.Errorf("snapshot word = %d", v)
					return
				}
			}
			if err := p.Munmap(s, 64*ps); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := uint64(0); i < words; i++ {
		p.Store(addr+i*8, 2)
	}
	<-done
	checkInvariants(t, p)
}
