// Package vmem simulates the virtual memory subsystem of an operating
// system inside a single Go process: virtual memory areas (VMAs), a
// two-level page table of PTEs, demand paging, copy-on-write, fork, and
// the paper's custom system call vm_snapshot.
//
// The reproduced paper extends the Linux kernel with vm_snapshot, a call
// that duplicates the VMAs and PTEs describing an arbitrary virtual
// memory range so that the duplicate shares physical pages
// copy-on-write with the source. A Go library cannot ship a kernel
// module, and the Go runtime owns the real address space (fork and
// user-space page rewiring are unsafe under the garbage collector), so
// this package rebuilds the mechanisms the paper manipulates as an
// explicit model: addresses are plain integers and pages come from
// internal/phys. The kernel events the paper's measurements hinge on —
// system calls, VMA operations, page faults, COW breaks, signals — are
// counted exactly in Stats, and Stats.SimTime prices those counts with
// a cost.Model; nothing waits for a simulated cost.
//
// Concurrency: a Process behaves like the kernel's mm_struct. Accessors
// (Load, Store, ResolvePages) take a read lock, mimicking lock-free
// hardware page-table walks; mutating calls (Mmap, Munmap, Mprotect,
// Fork, VMSnapshot and the fault paths) take the write lock, mimicking
// mmap_sem.
package vmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/cost"
	"ankerdb/internal/phys"
)

// Prot is a page protection mask.
type Prot uint8

// Protection bits, mirroring PROT_READ / PROT_WRITE.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
)

// CanWrite reports whether the mask allows stores.
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

// CanRead reports whether the mask allows loads.
func (p Prot) CanRead() bool { return p&ProtRead != 0 }

// Flags describe how a mapping relates to its backing store.
type Flags uint8

// Mapping flags, mirroring MAP_PRIVATE / MAP_SHARED / MAP_ANONYMOUS.
const (
	MapPrivate   Flags = 1 << 0
	MapShared    Flags = 1 << 1
	MapAnonymous Flags = 1 << 2
)

// Errors returned by the simulated system calls.
var (
	ErrInvalid    = errors.New("vmem: invalid argument")
	ErrUnaligned  = errors.New("vmem: address or length not page aligned")
	ErrBadAddress = errors.New("vmem: address range not mapped")
	ErrNoMem      = errors.New("vmem: destination range not reserved")
)

// FaultHook is the simulated SIGSEGV handler. The rewired snapshotting
// strategy registers one to implement manual copy-on-write: when a store
// hits a write-protected VMA the hook runs (outside the address-space
// lock, as a real signal handler would) and must repair the mapping,
// e.g. by claiming a fresh file page and MmapFixed-ing it over the
// faulting page. It returns true if the faulting access should be
// retried.
type FaultHook func(p *Process, addr uint64) bool

// Stats counts virtual memory subsystem activity. All counters are
// cumulative.
type Stats struct {
	Syscalls    uint64 // simulated kernel entries
	Mmaps       uint64
	Munmaps     uint64
	Mprotects   uint64
	Forks       uint64
	VMSnapshots uint64

	MinorFaults uint64 // demand-paging faults (page was not present)
	COWBreaks   uint64 // private pages copied on first write
	SignalHooks uint64 // write faults reflected to the FaultHook

	VMASplits uint64 // VMAs split at a boundary
	VMAMerges uint64 // adjacent compatible VMAs merged
	VMACopies uint64 // VMAs duplicated by Fork or VMSnapshot
	// VMAOps counts every vm_area_struct a call created, split, merged,
	// copied, reprotected or removed: the events cost.Model.VMAOp prices.
	VMAOps    uint64
	PTECopies uint64 // PTEs duplicated by Fork or VMSnapshot

	WordsCopied uint64 // 64-bit words copied by COW breaks
}

// SimTime is the simulated kernel time the counted events cost under m:
// one SyscallEntry per system call, one VMAOp per VMA operation, one
// PageFault per minor fault or COW break, one SignalDelivery per fault
// reflected to user space. Differences of two Stats price the events
// between them.
func (s Stats) SimTime(m cost.Model) time.Duration {
	return time.Duration(s.Syscalls)*m.SyscallEntry +
		time.Duration(s.VMAOps)*m.VMAOp +
		time.Duration(s.MinorFaults+s.COWBreaks)*m.PageFault +
		time.Duration(s.SignalHooks)*m.SignalDelivery
}

type statCounters struct {
	syscalls    atomic.Uint64
	mmaps       atomic.Uint64
	munmaps     atomic.Uint64
	mprotects   atomic.Uint64
	forks       atomic.Uint64
	vmSnapshots atomic.Uint64
	minorFaults atomic.Uint64
	cowBreaks   atomic.Uint64
	signalHooks atomic.Uint64
	vmaSplits   atomic.Uint64
	vmaMerges   atomic.Uint64
	vmaCopies   atomic.Uint64
	vmaOps      atomic.Uint64
	pteCopies   atomic.Uint64
	wordsCopied atomic.Uint64
}

// Process is one simulated address space: the set of VMAs plus the page
// table, with a physical page allocator behind it.
type Process struct {
	alloc     *phys.Allocator
	pageSize  uint64
	pageWords uint64

	// Every Load and Store, on any core, writes mu's reader count; the
	// pad keeps that cache line apart from the immutable fields above,
	// which the same accesses read.
	_          [64]byte
	mu         sync.RWMutex
	vmas       []*vma
	pt         map[uint64]*pteSlab
	nextAddr   uint64
	nextOrigin uint64
	hook       FaultHook

	st statCounters
}

// Option configures a Process at creation time.
type Option func(*config)

type config struct {
	pageSize int
	alloc    *phys.Allocator
}

// WithPageSize sets the page size in bytes (default phys.DefaultPageSize).
func WithPageSize(n int) Option { return func(c *config) { c.pageSize = n } }

// WithAllocator supplies a shared physical page pool. Processes that
// fork from each other always share the pool of their parent.
func WithAllocator(a *phys.Allocator) Option { return func(c *config) { c.alloc = a } }

// NewProcess creates an empty address space.
func NewProcess(opts ...Option) *Process {
	cfg := config{pageSize: phys.DefaultPageSize}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.alloc == nil {
		cfg.alloc = phys.NewAllocator(cfg.pageSize)
	}
	if cfg.alloc.PageSize() != cfg.pageSize {
		panic(fmt.Sprintf("vmem: allocator page size %d != process page size %d",
			cfg.alloc.PageSize(), cfg.pageSize))
	}
	return &Process{
		alloc:     cfg.alloc,
		pageSize:  uint64(cfg.pageSize),
		pageWords: uint64(cfg.pageSize / phys.WordSize),
		pt:        map[uint64]*pteSlab{},
		nextAddr:  1 << 20, // keep 0 invalid, like a real address space
	}
}

// PageSize returns the page size in bytes.
func (p *Process) PageSize() uint64 { return p.pageSize }

// PageWords returns the number of 64-bit words per page.
func (p *Process) PageWords() uint64 { return p.pageWords }

// Allocator returns the physical page pool.
func (p *Process) Allocator() *phys.Allocator { return p.alloc }

// SetFaultHook installs the simulated SIGSEGV handler (nil uninstalls).
func (p *Process) SetFaultHook(h FaultHook) {
	p.mu.Lock()
	p.hook = h
	p.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (p *Process) Stats() Stats {
	return Stats{
		Syscalls:    p.st.syscalls.Load(),
		Mmaps:       p.st.mmaps.Load(),
		Munmaps:     p.st.munmaps.Load(),
		Mprotects:   p.st.mprotects.Load(),
		Forks:       p.st.forks.Load(),
		VMSnapshots: p.st.vmSnapshots.Load(),
		MinorFaults: p.st.minorFaults.Load(),
		COWBreaks:   p.st.cowBreaks.Load(),
		SignalHooks: p.st.signalHooks.Load(),
		VMASplits:   p.st.vmaSplits.Load(),
		VMAMerges:   p.st.vmaMerges.Load(),
		VMACopies:   p.st.vmaCopies.Load(),
		VMAOps:      p.st.vmaOps.Load(),
		PTECopies:   p.st.pteCopies.Load(),
		WordsCopied: p.st.wordsCopied.Load(),
	}
}

// NumVMAs returns the number of VMAs currently describing the address
// space. Table 1 and Figure 5a of the paper track this number for the
// rewired snapshotting strategy.
func (p *Process) NumVMAs() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.vmas)
}

// NumVMAsIn returns the number of VMAs overlapping [addr, addr+length).
func (p *Process) NumVMAsIn(addr, length uint64) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, v := range p.vmas {
		if v.start < addr+length && v.end > addr {
			n++
		}
	}
	return n
}

// NumPTEs returns the number of present page-table entries.
func (p *Process) NumPTEs() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, s := range p.pt {
		n += s.live
	}
	return n
}

// MappedBytes returns the total size of all VMAs, i.e. the virtual size
// of the process (the "5.2 GB of virtual memory" of Figure 10).
func (p *Process) MappedBytes() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var n uint64
	for _, v := range p.vmas {
		n += v.size()
	}
	return n
}

// enterKernel counts one simulated system call entry.
func (p *Process) enterKernel() { p.st.syscalls.Add(1) }

func (p *Process) checkAligned(vals ...uint64) error {
	for _, v := range vals {
		if v%p.pageSize != 0 {
			return fmt.Errorf("%w: %#x (page size %d)", ErrUnaligned, v, p.pageSize)
		}
	}
	return nil
}
