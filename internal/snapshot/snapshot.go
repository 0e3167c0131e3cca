// Package snapshot implements the four snapshot-creation techniques the
// paper compares (Section 3 and Section 4):
//
//   - Physical:  eager deep copy of the data (Section 3.1)
//   - ForkBased: fork the whole process, COW by the kernel (Section 3.2.2)
//   - Rewired:   per-VMA re-mmap of a main-memory file plus manual
//     copy-on-write driven by write-protection faults (Section 3.2.3)
//   - VMSnap:    the paper's custom vm_snapshot system call (Section 4)
//
// All strategies implement Strategy over columns hosted in the simulated
// virtual memory subsystem (internal/vmem), so their creation costs and
// write-after-snapshot costs can be compared head to head, reproducing
// Table 1 and Figure 5.
package snapshot

import (
	"fmt"

	"ankerdb/internal/mmfile"
	"ankerdb/internal/vmem"
)

// Region is one contiguous virtual memory area to snapshot (a column in
// the micro-benchmarks).
type Region struct {
	Addr uint64
	Len  uint64
}

// Snap is a created snapshot: a read-only view of the regions at
// creation time. Regions()[i] is the snapshot of the i-th source region.
type Snap interface {
	// Regions returns where the snapshotted data lives.
	Regions() []Region
	// Reader returns the process whose address space holds the
	// snapshot regions (the child process for fork-based snapshots,
	// the snapshotting process itself otherwise).
	Reader() *vmem.Process
	// Release frees the snapshot.
	Release()
}

// Strategy creates snapshots of regions inside proc.
type Strategy interface {
	// Name is the strategy's Kind constant, the name New takes.
	Name() string
	// Snapshot creates a snapshot of the given regions.
	Snapshot(regions []Region) (Snap, error)
}

// The strategy names: what New takes and Strategy.Name returns.
const (
	KindPhysical = "physical"
	KindFork     = "fork"
	KindRewired  = "rewired"
	KindVMSnap   = "vmsnap"
)

// New constructs the named strategy for proc.
func New(name string, proc *vmem.Process) (Strategy, error) {
	switch name {
	case KindPhysical:
		return NewPhysical(proc), nil
	case KindFork:
		return NewForkBased(proc), nil
	case KindRewired:
		return NewRewired(proc), nil
	case KindVMSnap:
		return NewVMSnap(proc), nil
	}
	return nil, fmt.Errorf("snapshot: unknown strategy %q (have %s, %s, %s, %s)",
		name, KindPhysical, KindFork, KindRewired, KindVMSnap)
}

// RegionAllocator is implemented by strategies whose source regions need
// special backing. Rewired snapshotting can only snapshot shared
// mappings of main-memory files, so callers hosting data that will be
// snapshotted must allocate it through NewRegion when the strategy
// implements this interface.
type RegionAllocator interface {
	NewRegion(name string, length uint64) (Region, *mmfile.File, error)
}

// baseSnap is the common Snap shape for single-process strategies.
type baseSnap struct {
	proc    *vmem.Process
	regions []Region
	release func()
}

func (s *baseSnap) Regions() []Region     { return s.regions }
func (s *baseSnap) Reader() *vmem.Process { return s.proc }
func (s *baseSnap) Release() {
	if s.release != nil {
		s.release()
		s.release = nil
	}
}

// munmapRegions unmaps snapshot areas in proc, ignoring errors. Used
// both to release snapshots and to roll back partially created ones
// when a later region fails.
func munmapRegions(proc *vmem.Process, regions []Region) {
	for _, r := range regions {
		_ = proc.Munmap(r.Addr, r.Len)
	}
}

func checkRegions(regions []Region) error {
	if len(regions) == 0 {
		return fmt.Errorf("snapshot: no regions")
	}
	for _, r := range regions {
		if r.Len == 0 {
			return fmt.Errorf("snapshot: empty region at %#x", r.Addr)
		}
	}
	return nil
}
