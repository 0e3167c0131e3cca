package vmem

import (
	"fmt"
	"sort"

	"ankerdb/internal/mmfile"
)

// vma is the simulated vm_area_struct: one contiguous virtual memory
// area with uniform protection, flags and backing store.
type vma struct {
	start, end uint64 // [start, end), page aligned
	prot       Prot
	flags      Flags
	file       *mmfile.File // nil for anonymous mappings
	fileOff    uint64       // file offset backing `start`

	// origin identifies the mapping operation this VMA descends from,
	// the analog of the kernel's anon_vma: pieces split from one
	// mapping may merge back together, but distinct anonymous mappings
	// (including vm_snapshot clones of each other) never merge, even
	// when they end up address-adjacent.
	origin uint64
}

func (v *vma) size() uint64 { return v.end - v.start }

func (v *vma) contains(addr uint64) bool { return addr >= v.start && addr < v.end }

// offsetFor returns the file offset backing virtual address addr.
func (v *vma) offsetFor(addr uint64) uint64 { return v.fileOff + (addr - v.start) }

func (v *vma) clone() *vma {
	c := *v
	return &c
}

func (v *vma) String() string {
	kind := "anon"
	if v.file != nil {
		kind = fmt.Sprintf("file:%s+%#x", v.file.Name(), v.fileOff)
	}
	return fmt.Sprintf("vma[%#x,%#x) prot=%d flags=%d %s", v.start, v.end, v.prot, v.flags, kind)
}

// compatible reports whether b can be merged onto the end of a.
// File-backed VMAs merge when they map contiguous ranges of the same
// file; anonymous VMAs merge only when they descend from the same
// mapping (same origin).
func compatible(a, b *vma) bool {
	if a.end != b.start || a.prot != b.prot || a.flags != b.flags || a.file != b.file {
		return false
	}
	if a.file != nil {
		return a.fileOff+a.size() == b.fileOff
	}
	return a.origin == b.origin
}

// vmaIndex returns the index of the first VMA whose end is above addr.
// The caller must hold p.mu (read or write).
func (p *Process) vmaIndex(addr uint64) int {
	return sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].end > addr })
}

// findVMA returns the VMA containing addr, or nil.
// The caller must hold p.mu (read or write).
func (p *Process) findVMA(addr uint64) *vma {
	i := p.vmaIndex(addr)
	if i < len(p.vmas) && p.vmas[i].contains(addr) {
		return p.vmas[i]
	}
	return nil
}

// rangeMapped reports whether [start, end) is fully covered by VMAs
// with no holes. The caller must hold p.mu.
func (p *Process) rangeMapped(start, end uint64) bool {
	at := start
	for at < end {
		v := p.findVMA(at)
		if v == nil {
			return false
		}
		at = v.end
	}
	return true
}

// vmasIn returns the indexes [i0, i1) of the VMAs overlapping
// [start, end). The caller must hold p.mu.
func (p *Process) vmasIn(start, end uint64) (int, int) {
	i0 := p.vmaIndex(start)
	i1 := i0
	for i1 < len(p.vmas) && p.vmas[i1].start < end {
		i1++
	}
	return i0, i1
}

// splitAt splits the VMA spanning addr so that addr becomes a VMA
// boundary. No-op when addr already is one or no VMA spans it.
// The caller must hold p.mu for writing.
func (p *Process) splitAt(addr uint64) {
	i := p.vmaIndex(addr)
	if i >= len(p.vmas) {
		return
	}
	v := p.vmas[i]
	if !v.contains(addr) || v.start == addr {
		return
	}
	right := v.clone()
	right.start = addr
	if right.file != nil {
		right.fileOff = v.offsetFor(addr)
	}
	v.end = addr
	p.vmas = append(p.vmas, nil)
	copy(p.vmas[i+2:], p.vmas[i+1:])
	p.vmas[i+1] = right
	p.st.vmaSplits.Add(1)
	p.st.vmaOps.Add(1)
}

// insertVMA inserts v into the sorted VMA list and merges it with
// compatible neighbours. The range must not overlap any existing VMA.
// The caller must hold p.mu for writing.
func (p *Process) insertVMA(v *vma) {
	i := p.vmaIndex(v.start)
	if i < len(p.vmas) && p.vmas[i].start < v.end {
		panic(fmt.Sprintf("vmem: insertVMA overlap: %s vs %s", v, p.vmas[i]))
	}
	p.vmas = append(p.vmas, nil)
	copy(p.vmas[i+1:], p.vmas[i:])
	p.vmas[i] = v
	// Merge with successor first so the index of v stays valid.
	p.tryMerge(i + 1)
	p.tryMerge(i)
}

// tryMerge merges vmas[i-1] and vmas[i] when compatible.
// The caller must hold p.mu for writing.
func (p *Process) tryMerge(i int) {
	if i <= 0 || i >= len(p.vmas) {
		return
	}
	a, b := p.vmas[i-1], p.vmas[i]
	if !compatible(a, b) {
		return
	}
	a.end = b.end
	p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
	p.st.vmaMerges.Add(1)
	p.st.vmaOps.Add(1)
}

// removeRange unmaps [start, end): VMAs are split at the borders,
// removed, and their present PTEs dropped (releasing page references).
// Holes inside the range are permitted, as with munmap.
// The caller must hold p.mu for writing.
func (p *Process) removeRange(start, end uint64) {
	p.splitAt(start)
	p.splitAt(end)
	i0, i1 := p.vmasIn(start, end)
	if i0 == i1 {
		return
	}
	for _, v := range p.vmas[i0:i1] {
		p.dropPTEs(v.start, v.end)
		p.st.vmaOps.Add(1)
	}
	p.vmas = append(p.vmas[:i0], p.vmas[i1:]...)
}

// reserve hands out a fresh, unused virtual address range.
// The caller must hold p.mu for writing.
func (p *Process) reserve(length uint64) uint64 {
	addr := p.nextAddr
	p.nextAddr += length
	return addr
}
