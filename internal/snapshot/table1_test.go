package snapshot

import (
	"math/rand"
	"testing"
	"time"

	"ankerdb/internal/cost"
	"ankerdb/internal/vmem"
)

// table1Counts keeps the vmem.Stats fields the paper's Table 1 is
// written in, as the difference between two samples: kernel entries,
// the calls behind them, VMA and PTE work, faults, and the words a
// copy-on-write separation moved.
func table1Counts(before, after vmem.Stats) vmem.Stats {
	return vmem.Stats{
		Syscalls:    after.Syscalls - before.Syscalls,
		Mmaps:       after.Mmaps - before.Mmaps,
		VMSnapshots: after.VMSnapshots - before.VMSnapshots,
		VMAOps:      after.VMAOps - before.VMAOps,
		PTECopies:   after.PTECopies - before.PTECopies,
		MinorFaults: after.MinorFaults - before.MinorFaults,
		COWBreaks:   after.COWBreaks - before.COWBreaks,
		SignalHooks: after.SignalHooks - before.SignalHooks,
		WordsCopied: after.WordsCopied - before.WordsCopied,
	}
}

// TestTable1KernelCounts writes Table 1 and Figure 5a of the paper as
// exact kernel-event counts over one 64-page column: each strategy ×
// {a fresh column, the same column after 8 seeded writes to scattered
// pages under a pinned snapshot} × {create a snapshot, the first write
// to each of the 64 pages, release the snapshot}, with the simulated
// kernel time those counts cost under cost.Default.
//
// The fragmenting writes leave rewiring's source in 2×8+1 = 17 VMAs
// (each manual-COW rewire splits one page out of the mapping), and
// rewiring's create pays one mmap per source VMA: 1 mmap fresh, 17
// fragmented. vm_snapshot's kernel COW never splits the source, so it
// stays at one call per region. Under cost.Default rewiring's simulated
// create time passes vm_snapshot's already at 1 source VMA — 1.4 µs
// against 0.7 µs, because its write-protect pass is a second kernel
// entry — and at 17 VMAs it is 18.8 µs, 27× vm_snapshot's unchanged
// 0.7 µs: one more kernel entry and ~5 VMA operations per VMA. Fork
// copies every PTE of the process at create; tearing its child down
// enters no simulated call.
func TestTable1KernelCounts(t *testing.T) {
	const pages, writes = 64, 8
	const words = pages * pageSize / 8
	for _, c := range []struct {
		strategy   string
		fragmented bool
		vmas       int // source VMAs when the snapshot is created
		create     vmem.Stats
		write      vmem.Stats
		release    vmem.Stats
		sim        [3]time.Duration // create, write, release under cost.Default
	}{
		{KindPhysical, false, 1,
			vmem.Stats{Syscalls: 1, Mmaps: 1, VMAOps: 1, MinorFaults: pages},
			vmem.Stats{},
			vmem.Stats{Syscalls: 1, VMAOps: 1},
			[3]time.Duration{16700, 0, 700}},
		{KindPhysical, true, 1,
			vmem.Stats{Syscalls: 1, Mmaps: 1, VMAOps: 1, MinorFaults: pages},
			vmem.Stats{},
			vmem.Stats{Syscalls: 1, VMAOps: 1},
			[3]time.Duration{16700, 0, 700}},
		{KindFork, false, 1,
			vmem.Stats{Syscalls: 1, VMAOps: 1, PTECopies: pages},
			vmem.Stats{COWBreaks: pages, WordsCopied: words},
			vmem.Stats{},
			[3]time.Duration{700, 16000, 0}},
		{KindFork, true, 1,
			vmem.Stats{Syscalls: 1, VMAOps: 1, PTECopies: pages},
			vmem.Stats{COWBreaks: pages, WordsCopied: words},
			vmem.Stats{},
			[3]time.Duration{700, 16000, 0}},
		{KindRewired, false, 1,
			vmem.Stats{Syscalls: 2, Mmaps: 1, VMAOps: 2},
			vmem.Stats{Syscalls: pages, Mmaps: pages, VMAOps: 254, MinorFaults: pages, SignalHooks: pages},
			vmem.Stats{Syscalls: 1, VMAOps: 1},
			[3]time.Duration{1400, 175800, 700}},
		{KindRewired, true, 2*writes + 1,
			vmem.Stats{Syscalls: 2*writes + 2, Mmaps: 2*writes + 1, VMAOps: 80},
			vmem.Stats{Syscalls: pages, Mmaps: pages, VMAOps: 238, MinorFaults: pages, SignalHooks: pages},
			vmem.Stats{Syscalls: 1, VMAOps: 2*writes + 1},
			[3]time.Duration{18800, 174200, 2300}},
		{KindVMSnap, false, 1,
			vmem.Stats{Syscalls: 1, VMSnapshots: 1, VMAOps: 1, PTECopies: pages},
			vmem.Stats{COWBreaks: pages, WordsCopied: words},
			vmem.Stats{Syscalls: 1, VMAOps: 1},
			[3]time.Duration{700, 16000, 700}},
		{KindVMSnap, true, 1,
			vmem.Stats{Syscalls: 1, VMSnapshots: 1, VMAOps: 1, PTECopies: pages},
			vmem.Stats{COWBreaks: pages, WordsCopied: words},
			vmem.Stats{Syscalls: 1, VMAOps: 1},
			[3]time.Duration{700, 16000, 700}},
	} {
		h := newHarness(t, c.strategy)
		reg := h.region(t, pages)
		fillRegion(h.proc, reg, 0)
		if c.fragmented {
			pinned, err := h.strategy.Snapshot([]Region{reg})
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Release()
			// Odd pages 1..61: never adjacent, never the first or last.
			for _, i := range rand.New(rand.NewSource(1)).Perm(pages/2 - 1)[:writes] {
				h.proc.Store(reg.Addr+uint64(2*i+1)*pageSize, 1)
			}
		}
		if got := h.proc.NumVMAsIn(reg.Addr, reg.Len); got != c.vmas {
			t.Fatalf("%s fragmented=%v: source has %d VMAs, want %d", c.strategy, c.fragmented, got, c.vmas)
		}
		var snap Snap
		for i, step := range []struct {
			name string
			want vmem.Stats
			run  func()
		}{
			{"create", c.create, func() {
				var err error
				if snap, err = h.strategy.Snapshot([]Region{reg}); err != nil {
					t.Fatal(err)
				}
			}},
			{"first write per page", c.write, func() {
				for p := uint64(0); p < pages; p++ {
					h.proc.Store(reg.Addr+p*pageSize, 7)
				}
			}},
			{"release", c.release, func() { snap.Release() }},
		} {
			before := h.proc.Stats()
			step.run()
			got := table1Counts(before, h.proc.Stats())
			if got != step.want {
				t.Errorf("%s fragmented=%v %s: counts %+v, want %+v", c.strategy, c.fragmented, step.name, got, step.want)
			}
			if sim := got.SimTime(cost.Default); sim != c.sim[i] {
				t.Errorf("%s fragmented=%v %s: simulated %v, want %v", c.strategy, c.fragmented, step.name, sim, c.sim[i])
			}
		}
	}
}
