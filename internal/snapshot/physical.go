package snapshot

import (
	"ankerdb/internal/vmem"
)

// Physical is eager physical snapshotting (Section 3.1): a fresh
// virtual memory area is allocated and the content of every region is
// deep-copied into it with memcpy. Creation cost is proportional to the
// amount of data, independent of how much of it will ever be modified.
type Physical struct {
	proc *vmem.Process
}

// NewPhysical returns the physical snapshotting strategy for proc.
func NewPhysical(proc *vmem.Process) *Physical { return &Physical{proc: proc} }

// Name implements Strategy.
func (*Physical) Name() string { return KindPhysical }

// Snapshot implements Strategy: it allocates len(regions) fresh areas
// and copies the source bytes over.
func (p *Physical) Snapshot(regions []Region) (Snap, error) {
	if err := checkRegions(regions); err != nil {
		return nil, err
	}
	out := make([]Region, len(regions))
	buf := make([]uint64, p.proc.PageWords())
	for i, r := range regions {
		addr, err := p.proc.Mmap(r.Len, vmem.ProtRead|vmem.ProtWrite, vmem.MapPrivate|vmem.MapAnonymous, nil, 0)
		if err != nil {
			munmapRegions(p.proc, out[:i])
			return nil, err
		}
		// Page-wise memcpy: the eager separation of source and
		// snapshot that Table 1 prices.
		for off := uint64(0); off < r.Len; off += p.proc.PageSize() {
			p.proc.ReadWords(r.Addr+off, buf)
			p.proc.WriteWords(addr+off, buf)
		}
		out[i] = Region{Addr: addr, Len: r.Len}
	}
	s := &baseSnap{proc: p.proc, regions: out}
	s.release = func() { munmapRegions(p.proc, out) }
	return s, nil
}

var _ Strategy = (*Physical)(nil)
