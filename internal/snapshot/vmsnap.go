package snapshot

import "ankerdb/internal/vmem"

// VMSnap is the paper's approach (Section 4): one vm_snapshot system
// call per region duplicates the VMAs and PTEs of the source so the
// snapshot shares all physical pages copy-on-write. Creation cost is a
// single kernel entry plus a bulk page-table copy — independent of the
// VMA fragmentation that cripples rewiring — and writes to the source
// are handled by the kernel's own COW, several times cheaper than the
// manual user-space path (Figure 5b).
type VMSnap struct {
	proc *vmem.Process
}

// NewVMSnap returns the vm_snapshot-based strategy for proc.
func NewVMSnap(proc *vmem.Process) *VMSnap { return &VMSnap{proc: proc} }

// Name implements Strategy.
func (*VMSnap) Name() string { return KindVMSnap }

// Snapshot implements Strategy: one vm_snapshot call per region.
func (v *VMSnap) Snapshot(regions []Region) (Snap, error) {
	if err := checkRegions(regions); err != nil {
		return nil, err
	}
	out := make([]Region, len(regions))
	for i, r := range regions {
		addr, err := v.proc.VMSnapshot(0, r.Addr, r.Len)
		if err != nil {
			munmapRegions(v.proc, out[:i])
			return nil, err
		}
		out[i] = Region{Addr: addr, Len: r.Len}
	}
	s := &baseSnap{proc: v.proc, regions: out}
	s.release = func() { munmapRegions(v.proc, out) }
	return s, nil
}

// SnapshotInto recreates the snapshot of src over the previously
// created snapshot dst, recycling its virtual memory area (the
// three-argument form of vm_snapshot, Section 4.1.3).
func (v *VMSnap) SnapshotInto(dst Region, src Region) error {
	_, err := v.proc.VMSnapshot(dst.Addr, src.Addr, src.Len)
	return err
}

var _ Strategy = (*VMSnap)(nil)
