// Package cost provides the simulated kernel cost model used to price
// the virtual-memory subsystem simulator (internal/vmem).
//
// The paper's contribution is a custom Linux system call. Re-implementing
// it in user-space Go removes the real hardware costs of entering the
// kernel, walking vm_area_structs, and taking page faults. The simulator
// therefore counts those events exactly (vmem.Stats) and a Model prices
// them: simulated kernel time is counts × Model, computed on read by
// vmem.Stats.SimTime. Nothing waits for a simulated cost, so a model
// changes what is reported, never how long anything runs. The constants
// are calibrated to the same order of magnitude as a Linux kernel on
// commodity hardware; Zero prices every event at nothing.
package cost

import "time"

// Model prices one occurrence of each kernel-level event the simulator
// counts.
type Model struct {
	// SyscallEntry is charged once per simulated system call
	// (mmap, munmap, mprotect, fork, vm_snapshot): mode switch,
	// register save/restore, and entry bookkeeping.
	SyscallEntry time.Duration

	// VMAOp is charged per vm_area_struct created, split, merged,
	// copied, reprotected or removed inside a call: allocation, rb-tree
	// relinking, and anon_vma bookkeeping in a real kernel.
	VMAOp time.Duration

	// PageFault is charged per simulated page fault (minor fault or
	// copy-on-write fault): trap entry, fault decoding, and TLB
	// shootdown. The memcpy of the page itself is real work and is
	// not part of this constant.
	PageFault time.Duration

	// SignalDelivery is charged when a fault must be reflected to
	// user space as SIGSEGV (the rewired-snapshotting write path):
	// signal frame setup, handler dispatch, and sigreturn.
	SignalDelivery time.Duration
}

// Default is calibrated to the order of magnitude of Linux on the
// paper's hardware (Xeon E5-2407, kernel 4.8): a syscall round trip in
// the hundreds of nanoseconds, a COW fault slightly cheaper, signal
// delivery considerably more expensive.
var Default = Model{
	SyscallEntry:   600 * time.Nanosecond,
	VMAOp:          100 * time.Nanosecond,
	PageFault:      250 * time.Nanosecond,
	SignalDelivery: 1500 * time.Nanosecond,
}

// Zero prices every event at nothing.
var Zero = Model{}
