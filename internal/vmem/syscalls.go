package vmem

import (
	"fmt"

	"ankerdb/internal/mmfile"
)

// Mmap allocates a virtual memory area of length bytes at a
// kernel-chosen address and returns its start address. Anonymous
// mappings (file == nil) must pass MapAnonymous|MapPrivate; file-backed
// mappings map the main-memory file f starting at the page-aligned
// offset off, either MapShared (stores reach the file) or MapPrivate
// (stores copy-on-write).
func (p *Process) Mmap(length uint64, prot Prot, flags Flags, f *mmfile.File, off uint64) (uint64, error) {
	p.enterKernel()
	p.st.mmaps.Add(1)
	if err := p.validateMap(length, flags, f, off); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.reserve(length)
	p.nextOrigin++
	p.insertVMA(&vma{start: addr, end: addr + length, prot: prot, flags: flags, file: f, fileOff: off, origin: p.nextOrigin})
	p.st.vmaOps.Add(1)
	return addr, nil
}

// MmapFixed maps [addr, addr+length) exactly, atomically replacing any
// existing mappings in the range (MAP_FIXED semantics). The rewired
// snapshotting write path uses it to rewire a single page to a fresh
// file offset.
func (p *Process) MmapFixed(addr, length uint64, prot Prot, flags Flags, f *mmfile.File, off uint64) error {
	p.enterKernel()
	p.st.mmaps.Add(1)
	if err := p.validateMap(length, flags, f, off); err != nil {
		return err
	}
	if err := p.checkAligned(addr); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeRange(addr, addr+length)
	p.nextOrigin++
	p.insertVMA(&vma{start: addr, end: addr + length, prot: prot, flags: flags, file: f, fileOff: off, origin: p.nextOrigin})
	p.st.vmaOps.Add(1)
	return nil
}

func (p *Process) validateMap(length uint64, flags Flags, f *mmfile.File, off uint64) error {
	if length == 0 || length%p.pageSize != 0 {
		return fmt.Errorf("%w: length %d", ErrUnaligned, length)
	}
	private := flags&MapPrivate != 0
	shared := flags&MapShared != 0
	if private == shared {
		return fmt.Errorf("%w: exactly one of MapPrivate or MapShared required", ErrInvalid)
	}
	if f == nil {
		if flags&MapAnonymous == 0 {
			return fmt.Errorf("%w: nil file without MapAnonymous", ErrInvalid)
		}
		if shared {
			return fmt.Errorf("%w: anonymous shared mappings are not modelled", ErrInvalid)
		}
		return nil
	}
	if flags&MapAnonymous != 0 {
		return fmt.Errorf("%w: MapAnonymous with a file", ErrInvalid)
	}
	if off%uint64(f.PageSize()) != 0 {
		return fmt.Errorf("%w: file offset %#x", ErrUnaligned, off)
	}
	if f.Allocator() != p.alloc {
		return fmt.Errorf("%w: file belongs to a different physical pool", ErrInvalid)
	}
	return nil
}

// Munmap removes all mappings in [addr, addr+length), dropping the page
// references they hold. Unmapped holes inside the range are permitted.
func (p *Process) Munmap(addr, length uint64) error {
	p.enterKernel()
	p.st.munmaps.Add(1)
	if err := p.checkAligned(addr, length); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeRange(addr, addr+length)
	return nil
}

// Mprotect changes the protection of every mapping in
// [addr, addr+length). Removing write access write-protects the present
// PTEs (so the next store faults — the mechanism rewired snapshotting
// uses to detect writes); restoring it is lazy, handled on the next
// fault. The range must be fully mapped.
func (p *Process) Mprotect(addr, length uint64, prot Prot) error {
	p.enterKernel()
	p.st.mprotects.Add(1)
	if err := p.checkAligned(addr, length); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.rangeMapped(addr, addr+length) {
		return fmt.Errorf("%w: mprotect [%#x,%#x)", ErrBadAddress, addr, addr+length)
	}
	p.splitAt(addr)
	p.splitAt(addr + length)
	i0, i1 := p.vmasIn(addr, addr+length)
	for _, v := range p.vmas[i0:i1] {
		v.prot = prot
		p.st.vmaOps.Add(1)
		if !prot.CanWrite() {
			p.forEachPTE(v.start, v.end, func(_ uint64, e *pte) {
				e.flags &^= pteWriteOK
			})
		}
	}
	// Write-protecting may make the border VMAs mergeable again.
	p.tryMerge(i1)
	p.tryMerge(i0)
	return nil
}

// Fork creates a child address space that shares all physical pages
// with the parent: every VMA and every present PTE is copied, and
// private pages are write-protected on both sides so the first store in
// either process triggers copy-on-write. This is the mechanism behind
// fork-based snapshotting (HyPer-style): the cost is proportional to
// the *whole* process image, not to the data of interest.
func (p *Process) Fork() *Process {
	p.enterKernel()
	p.st.forks.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()

	child := &Process{
		alloc:     p.alloc,
		pageSize:  p.pageSize,
		pageWords: p.pageWords,
		pt:        map[uint64]*pteSlab{},
		nextAddr:  p.nextAddr,
		hook:      p.hook,
	}
	for _, v := range p.vmas {
		child.vmas = append(child.vmas, v.clone())
		p.st.vmaCopies.Add(1)
		p.st.vmaOps.Add(1)
		p.copyPTERange(child, v.start, v.end, v.flags&MapPrivate != 0, 0)
	}
	child.nextOrigin = p.nextOrigin
	return child
}

// copyPTERange duplicates the present PTEs of [start, end) into dst,
// shifted by deltaPages virtual pages, applying COW write-protection on
// both sides for private mappings. The bounds must be captured before
// any VMA bookkeeping mutates them. The caller must hold p.mu for
// writing; dst must not be concurrently accessed (it is either a fresh
// fork child or p itself under the lock).
func (p *Process) copyPTERange(dst *Process, start, end uint64, private bool, deltaPages int64) {
	p.forEachPTE(start, end, func(vpn uint64, e *pte) {
		p.alloc.Get(e.page)
		fl := e.flags &^ ptePresent
		if private {
			// Both sides must fault before writing again.
			e.flags = (e.flags &^ pteWriteOK) | pteCOW
			fl = (fl &^ pteWriteOK) | pteCOW
		}
		dst.setPTE(uint64(int64(vpn)+deltaPages), e.page, fl)
		p.st.pteCopies.Add(1)
	})
}

// VMSnapshot is the paper's custom system call: it snapshots the
// virtual memory area [src, src+length) by duplicating the VMAs that
// describe it and, for private mappings, their PTEs, so that the new
// area shares all physical pages copy-on-write with the source.
//
// If dst is zero a fresh virtual memory area is reserved and returned
// (the two-argument form of §4.1.1). If dst is non-zero, the snapshot
// is materialised over the existing, fully mapped area [dst,
// dst+length), recycling its virtual address range (§4.1.3); the call
// fails with ErrNoMem if that range is not entirely mapped.
func (p *Process) VMSnapshot(dst, src, length uint64) (uint64, error) {
	p.enterKernel()
	p.st.vmSnapshots.Add(1)
	if err := p.checkAligned(dst, src, length); err != nil {
		return 0, err
	}
	if length == 0 {
		return 0, fmt.Errorf("%w: zero length", ErrInvalid)
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	// Step 1: the source range must be fully mapped.
	if !p.rangeMapped(src, src+length) {
		return 0, fmt.Errorf("%w: vm_snapshot source [%#x,%#x)", ErrBadAddress, src, src+length)
	}
	// Step 4: destination handling.
	if dst == 0 {
		dst = p.reserve(length)
	} else {
		if overlap(dst, src, length) {
			return 0, fmt.Errorf("%w: vm_snapshot ranges overlap", ErrInvalid)
		}
		if !p.rangeMapped(dst, dst+length) {
			return 0, fmt.Errorf("%w: vm_snapshot destination [%#x,%#x)", ErrNoMem, dst, dst+length)
		}
		p.removeRange(dst, dst+length)
	}
	// Step 3: split the border VMAs so they exactly match the range.
	p.splitAt(src)
	p.splitAt(src + length)

	// Steps 5-7: copy each VMA, and the PTEs of private ones. Capture
	// the source VMAs and their bounds first: insertVMA both shifts
	// slice indexes and may merge clones, mutating bounds in place.
	i0, i1 := p.vmasIn(src, src+length)
	srcVMAs := append([]*vma(nil), p.vmas[i0:i1]...)
	deltaPages := (int64(dst) - int64(src)) / int64(p.pageSize)
	p.nextOrigin++
	cloneOrigin := p.nextOrigin
	for _, sv := range srcVMAs {
		svStart, svEnd, svPrivate := sv.start, sv.end, sv.flags&MapPrivate != 0
		c := sv.clone()
		c.start = svStart - src + dst
		c.end = svEnd - src + dst
		c.origin = cloneOrigin
		p.st.vmaCopies.Add(1)
		p.st.vmaOps.Add(1)
		p.insertVMA(c)
		if svPrivate {
			p.copyPTERange(p, svStart, svEnd, true, deltaPages)
		}
	}
	return dst, nil
}

func overlap(a, b, length uint64) bool {
	return a < b+length && b < a+length
}

// Destroy unmaps the entire address space, releasing every page
// reference the process holds. The Process must not be used afterwards.
func (p *Process) Destroy() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.vmas {
		p.dropPTEs(v.start, v.end)
	}
	p.vmas = nil
	p.pt = map[uint64]*pteSlab{}
}
