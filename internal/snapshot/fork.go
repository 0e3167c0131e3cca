package snapshot

import "ankerdb/internal/vmem"

// ForkBased is HyPer-style virtual snapshotting (Section 3.2.2): the
// whole process is forked and the child's view of the regions is the
// snapshot. The kernel write-protects every private page on both sides,
// so creation cost is proportional to the size of the entire process
// image — independent of how many regions were actually requested,
// which is the inflexibility Figure 10 of the paper demonstrates.
type ForkBased struct {
	proc *vmem.Process
}

// NewForkBased returns the fork-based snapshotting strategy for proc.
func NewForkBased(proc *vmem.Process) *ForkBased { return &ForkBased{proc: proc} }

// Name implements Strategy.
func (*ForkBased) Name() string { return KindFork }

type forkSnap struct {
	child   *vmem.Process
	regions []Region
}

func (s *forkSnap) Regions() []Region     { return s.regions }
func (s *forkSnap) Reader() *vmem.Process { return s.child }
func (s *forkSnap) Release() {
	if s.child != nil {
		s.child.Destroy()
		s.child = nil
	}
}

// Snapshot implements Strategy. The requested regions only select what
// the caller will read: fork always duplicates everything.
func (f *ForkBased) Snapshot(regions []Region) (Snap, error) {
	if err := checkRegions(regions); err != nil {
		return nil, err
	}
	child := f.proc.Fork()
	return &forkSnap{child: child, regions: append([]Region(nil), regions...)}, nil
}

var _ Strategy = (*ForkBased)(nil)
