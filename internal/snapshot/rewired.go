package snapshot

import (
	"fmt"
	"sync"

	"ankerdb/internal/mmfile"
	"ankerdb/internal/vmem"
)

// Rewired is user-space rewired snapshotting (Section 3.2.3, after the
// RUMA paper): source regions live in shared mappings of main-memory
// files, so the virtual-to-physical mapping is visible and mutable from
// user space. To snapshot, a fresh virtual area is mmap-ed to the same
// file offsets, one mmap call per VMA backing the source — the cost
// that grows with every copy-on-write the source has absorbed. The
// source is then write-protected; the first write to each of its pages
// raises a fault that the strategy handles manually: claim an unused
// page at the file's tail, copy the old content, and rewire the
// faulting page to the new offset.
type Rewired struct {
	proc *vmem.Process

	mu    sync.Mutex
	files map[*mmfile.File]bool // files under rewiring management
}

// NewRewired returns the rewired snapshotting strategy for proc and
// installs its manual copy-on-write fault hook.
func NewRewired(proc *vmem.Process) *Rewired {
	r := &Rewired{proc: proc, files: map[*mmfile.File]bool{}}
	proc.SetFaultHook(r.handleWriteFault)
	return r
}

// Name implements Strategy.
func (*Rewired) Name() string { return KindRewired }

// NewRegion allocates a rewirable region of length bytes: a fresh
// main-memory file mapped shared and writable. Columns that will be
// snapshotted with rewiring must live in such regions.
func (r *Rewired) NewRegion(name string, length uint64) (Region, *mmfile.File, error) {
	f := mmfile.Create(name, r.proc.Allocator())
	f.Truncate(int(length / r.proc.PageSize()))
	addr, err := r.proc.Mmap(length, vmem.ProtRead|vmem.ProtWrite, vmem.MapShared, f, 0)
	if err != nil {
		return Region{}, nil, err
	}
	r.mu.Lock()
	r.files[f] = true
	r.mu.Unlock()
	return Region{Addr: addr, Len: length}, f, nil
}

// handleWriteFault is the simulated SIGSEGV handler performing manual
// copy-on-write: detect the write, claim an unused page from the file,
// copy the content over, and rewire the faulting virtual page to the
// new physical page. Compare Figure 5b: this path is several times more
// expensive than the kernel's own COW.
func (r *Rewired) handleWriteFault(p *vmem.Process, addr uint64) bool {
	file, off, ok := p.Translation(addr)
	if !ok {
		return false
	}
	r.mu.Lock()
	managed := r.files[file]
	r.mu.Unlock()
	if !managed {
		return false
	}
	newOff, newPage := file.AppendPage()
	copy(newPage.Words, file.PageAt(off).Words)
	pageAddr := addr &^ (p.PageSize() - 1)
	err := p.MmapFixed(pageAddr, p.PageSize(), vmem.ProtRead|vmem.ProtWrite, vmem.MapShared, file, newOff)
	return err == nil
}

// Snapshot implements Strategy: for every VMA backing each region, the
// corresponding portion of a fresh area is mmap-ed to the same file
// offsets; then the source is write-protected so the next writes fault
// into manual COW.
func (r *Rewired) Snapshot(regions []Region) (Snap, error) {
	if err := checkRegions(regions); err != nil {
		return nil, err
	}
	out := make([]Region, len(regions))
	// fail rolls back the snapshot areas built so far, including the
	// partially rewired area of the failing region.
	fail := func(i int, partial Region, err error) (Snap, error) {
		munmapRegions(r.proc, out[:i])
		if partial.Addr != 0 {
			_ = r.proc.Munmap(partial.Addr, partial.Len)
		}
		return nil, err
	}
	for i, reg := range regions {
		mappings := r.proc.DescribeRange(reg.Addr, reg.Len)
		if len(mappings) == 0 {
			return fail(i, Region{}, fmt.Errorf("rewired snapshot: region %#x not mapped", reg.Addr))
		}
		var snapAddr uint64
		for j, m := range mappings {
			if m.File == nil || m.Flags&vmem.MapShared == 0 {
				return fail(i, Region{Addr: snapAddr, Len: reg.Len},
					fmt.Errorf("rewired snapshot: region %#x is not a shared file mapping", reg.Addr))
			}
			if j == 0 {
				// First VMA also reserves the whole area; its tail is
				// immediately rewired by the following mmaps.
				a, err := r.proc.Mmap(reg.Len, vmem.ProtRead, vmem.MapShared, m.File, m.FileOff)
				if err != nil {
					return fail(i, Region{}, err)
				}
				snapAddr = a
				continue
			}
			dst := snapAddr + (m.Addr - reg.Addr)
			if err := r.proc.MmapFixed(dst, m.Len, vmem.ProtRead, vmem.MapShared, m.File, m.FileOff); err != nil {
				return fail(i, Region{Addr: snapAddr, Len: reg.Len}, err)
			}
		}
		// Write-protect the source: the detection mechanism for manual
		// copy-on-write (the paper's extra mprotect pass).
		if err := r.proc.Mprotect(reg.Addr, reg.Len, vmem.ProtRead); err != nil {
			return fail(i, Region{Addr: snapAddr, Len: reg.Len}, err)
		}
		out[i] = Region{Addr: snapAddr, Len: reg.Len}
	}
	s := &baseSnap{proc: r.proc, regions: out}
	s.release = func() { munmapRegions(r.proc, out) }
	return s, nil
}

var (
	_ Strategy        = (*Rewired)(nil)
	_ RegionAllocator = (*Rewired)(nil)
)
