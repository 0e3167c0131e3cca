package vmem

import (
	"fmt"
	"sync/atomic"

	"ankerdb/internal/mmfile"
	"ankerdb/internal/phys"
)

// pageRef is the physical page type used by PTEs.
type pageRef = phys.Page

// Load returns the 64-bit word at the word-aligned virtual address
// addr, demand-paging it in if necessary. It panics if the address is
// unmapped or unaligned: callers (the storage engine) guarantee
// validity, so a failure is a bug, not an I/O condition.
//
// Loads are atomic at word granularity, mirroring aligned hardware
// loads, so concurrent committed writes are observed without tearing.
func (p *Process) Load(addr uint64) uint64 {
	widx := (addr % p.pageSize) / phys.WordSize
	if addr%phys.WordSize != 0 {
		panic(fmt.Sprintf("vmem: unaligned load at %#x", addr))
	}
	vpn := addr / p.pageSize
	for range 16 {
		p.mu.RLock()
		if e := p.pteLookup(vpn); e != nil && e.flags&ptePresent != 0 {
			v := atomic.LoadUint64(&e.page.Words[widx])
			p.mu.RUnlock()
			return v
		}
		p.mu.RUnlock()
		if err := p.repair(addr, false); err != nil {
			panic(fmt.Sprintf("vmem: load at %#x: %v", addr, err))
		}
	}
	panic(fmt.Sprintf("vmem: load at %#x did not make progress", addr))
}

// Store writes the 64-bit word at the word-aligned virtual address
// addr, handling demand paging, copy-on-write, and write-protection
// faults (which are reflected to the FaultHook). It panics on
// unresolvable faults, like Load.
func (p *Process) Store(addr uint64, val uint64) {
	widx := (addr % p.pageSize) / phys.WordSize
	if addr%phys.WordSize != 0 {
		panic(fmt.Sprintf("vmem: unaligned store at %#x", addr))
	}
	vpn := addr / p.pageSize
	for range 16 {
		p.mu.RLock()
		if e := p.pteLookup(vpn); e != nil && e.flags&ptePresent != 0 && e.flags&pteWriteOK != 0 {
			atomic.StoreUint64(&e.page.Words[widx], val)
			p.mu.RUnlock()
			return
		}
		p.mu.RUnlock()
		if err := p.repair(addr, true); err != nil {
			panic(fmt.Sprintf("vmem: store at %#x: %v", addr, err))
		}
	}
	panic(fmt.Sprintf("vmem: store at %#x did not make progress", addr))
}

// repair makes the PTE for addr present (and writable, for write
// faults), running the fault path under the address-space lock. Write
// faults against write-protected VMAs are reflected to the FaultHook
// outside the lock, as a signal handler would run.
func (p *Process) repair(addr uint64, write bool) error {
	p.mu.Lock()
	hook, needHook, err := p.faultLocked(addr, write)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if !needHook {
		return nil
	}
	p.st.signalHooks.Add(1)
	if hook == nil {
		return fmt.Errorf("%w: write to read-only mapping at %#x and no fault hook", ErrBadAddress, addr)
	}
	if !hook(p, addr) {
		return fmt.Errorf("%w: fault hook declined write fault at %#x", ErrBadAddress, addr)
	}
	return nil
}

// faultLocked implements the kernel page-fault path. It returns
// needHook=true when the fault must be reflected to user space.
// The caller must hold p.mu for writing.
func (p *Process) faultLocked(addr uint64, write bool) (hook FaultHook, needHook bool, err error) {
	v := p.findVMA(addr)
	if v == nil {
		return nil, false, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	if write && !v.prot.CanWrite() {
		return p.hook, true, nil
	}
	vpn := p.vpn(addr)
	_, e := p.pteEnsure(vpn)

	if e.flags&ptePresent == 0 {
		p.st.minorFaults.Add(1)
		pageAddr := addr &^ (p.pageSize - 1)
		switch {
		case v.file == nil && write:
			// Anonymous write fault: fresh zeroed page, immediately writable.
			p.setPTE(vpn, p.alloc.Alloc(), pteWriteOK)
			return nil, false, nil
		case v.file == nil:
			// Anonymous read fault: map the shared zero page copy-on-write.
			z := p.alloc.ZeroPage()
			p.alloc.Get(z)
			p.setPTE(vpn, z, pteCOW)
			return nil, false, nil
		default:
			pg := v.file.PageAt(v.offsetFor(pageAddr))
			p.alloc.Get(pg)
			switch {
			case v.flags&MapShared != 0:
				fl := pteFlags(0)
				if v.prot.CanWrite() {
					fl = pteWriteOK
				}
				p.setPTE(vpn, pg, fl)
			default: // private file mapping: first write must copy
				p.setPTE(vpn, pg, pteCOW)
			}
		}
		e = p.pteLookup(vpn)
	}

	if write && e.flags&pteWriteOK == 0 {
		switch {
		case e.flags&pteCOW != 0:
			p.breakCOWLocked(e)
		case v.prot.CanWrite():
			// Write permission restored by mprotect after it was removed.
			e.flags |= pteWriteOK
		default:
			return p.hook, true, nil
		}
	}
	return nil, false, nil
}

// breakCOWLocked resolves a copy-on-write fault on e: if the page is
// exclusively owned it is reused in place; otherwise a fresh page is
// allocated and the contents copied. The caller must hold p.mu for
// writing.
func (p *Process) breakCOWLocked(e *pte) {
	p.st.cowBreaks.Add(1)
	old := e.page
	if old.Refs() == 1 {
		// Sole owner (the other sharers already copied): write in place.
		e.flags = (e.flags &^ pteCOW) | pteWriteOK
		return
	}
	np := p.alloc.AllocNoZero()
	copy(np.Words, old.Words)
	p.st.wordsCopied.Add(p.pageWords)
	p.alloc.Put(old)
	e.page = np
	e.flags = (e.flags &^ pteCOW) | pteWriteOK
}

// ResolvePages returns the physical pages backing n consecutive virtual
// pages starting at the page-aligned address addr, demand-paging absent
// ones in read mode.
//
// Stability contract: the returned pointers stay valid and their
// contents immutable only while the caller guarantees the mapping is
// neither unmapped nor written through (frozen snapshot generations
// satisfy this). Live OLTP data must be accessed through Load/Store.
func (p *Process) ResolvePages(addr uint64, n int) []*phys.Page {
	if err := p.checkAligned(addr); err != nil {
		panic(err)
	}
	pages := make([]*phys.Page, n)
	i := 0
	for i < n {
		p.mu.RLock()
		for ; i < n; i++ {
			e := p.pteLookup(p.vpn(addr + uint64(i)*p.pageSize))
			if e == nil || e.flags&ptePresent == 0 {
				break
			}
			pages[i] = e.page
		}
		p.mu.RUnlock()
		if i < n {
			a := addr + uint64(i)*p.pageSize
			if err := p.repair(a, false); err != nil {
				panic(fmt.Sprintf("vmem: resolve at %#x: %v", a, err))
			}
		}
	}
	return pages
}

// ReadWords copies len(dst) words starting at the word-aligned virtual
// address addr into dst. It is intended for initialisation, snapshots
// and tests; concurrent committed writers may be observed page-wise.
func (p *Process) ReadWords(addr uint64, dst []uint64) {
	for len(dst) > 0 {
		widx := (addr % p.pageSize) / phys.WordSize
		n := min(uint64(len(dst)), p.pageWords-widx)
		pg := p.pageForRead(addr)
		copy(dst[:n], pg.Words[widx:widx+n])
		dst = dst[n:]
		addr += n * phys.WordSize
	}
}

// WriteWords stores src at the word-aligned virtual address addr,
// faulting pages writable (including COW breaks) as it goes. Bulk
// initialisation path; not atomic with respect to concurrent readers.
func (p *Process) WriteWords(addr uint64, src []uint64) {
	for len(src) > 0 {
		widx := (addr % p.pageSize) / phys.WordSize
		n := min(uint64(len(src)), p.pageWords-widx)
		pg := p.pageForWrite(addr)
		copy(pg.Words[widx:widx+n], src[:n])
		src = src[n:]
		addr += n * phys.WordSize
	}
}

func (p *Process) pageForRead(addr uint64) *phys.Page {
	vpn := addr / p.pageSize
	for range 16 {
		p.mu.RLock()
		if e := p.pteLookup(vpn); e != nil && e.flags&ptePresent != 0 {
			pg := e.page
			p.mu.RUnlock()
			return pg
		}
		p.mu.RUnlock()
		if err := p.repair(addr, false); err != nil {
			panic(fmt.Sprintf("vmem: read page at %#x: %v", addr, err))
		}
	}
	panic(fmt.Sprintf("vmem: read page at %#x did not make progress", addr))
}

func (p *Process) pageForWrite(addr uint64) *phys.Page {
	vpn := addr / p.pageSize
	for range 16 {
		p.mu.RLock()
		if e := p.pteLookup(vpn); e != nil && e.flags&ptePresent != 0 && e.flags&pteWriteOK != 0 {
			pg := e.page
			p.mu.RUnlock()
			return pg
		}
		p.mu.RUnlock()
		if err := p.repair(addr, true); err != nil {
			panic(fmt.Sprintf("vmem: write page at %#x: %v", addr, err))
		}
	}
	panic(fmt.Sprintf("vmem: write page at %#x did not make progress", addr))
}

// Mapping describes one VMA, as reported by DescribeRange.
type Mapping struct {
	Addr    uint64
	Len     uint64
	Prot    Prot
	Flags   Flags
	File    *mmfile.File // nil for anonymous areas
	FileOff uint64
}

// DescribeRange returns the mappings overlapping [addr, addr+length),
// clipped to the range. Rewired snapshotting enumerates them to re-mmap
// a new virtual area to the same file offsets, one mmap per VMA — the
// per-VMA cost that Table 1 and Figure 5a of the paper measure.
func (p *Process) DescribeRange(addr, length uint64) []Mapping {
	p.mu.RLock()
	defer p.mu.RUnlock()
	i0, i1 := p.vmasIn(addr, addr+length)
	out := make([]Mapping, 0, i1-i0)
	for _, v := range p.vmas[i0:i1] {
		m := Mapping{Addr: v.start, Len: v.size(), Prot: v.prot, Flags: v.flags, File: v.file, FileOff: v.fileOff}
		if m.Addr < addr {
			clip := addr - m.Addr
			m.Addr += clip
			m.Len -= clip
			m.FileOff += clip
		}
		if m.Addr+m.Len > addr+length {
			m.Len = addr + length - m.Addr
		}
		out = append(out, m)
	}
	return out
}

// Translation returns the file and file offset backing the virtual
// address addr, for file-backed mappings. The rewired snapshotting
// fault hook uses it to locate the page it must copy.
func (p *Process) Translation(addr uint64) (f *mmfile.File, off uint64, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v := p.findVMA(addr)
	if v == nil || v.file == nil {
		return nil, 0, false
	}
	return v.file, v.offsetFor(addr &^ (p.pageSize - 1)), true
}
