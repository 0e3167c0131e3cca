package snapshot

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"ankerdb/internal/cost"
	"ankerdb/internal/vmem"
)

var update = flag.Bool("update", false, "rewrite "+goldenFigures+" from this run")

const (
	goldenFigures = "testdata/paper_figures.golden"
	// figurePages is the size of every column the figures snapshot.
	figurePages = 64
)

// TestPaperFigures renders the paper's Table 1 and Figure 5 as exact
// kernel-event counts and fails on any byte difference from
// testdata/paper_figures.golden. Each row is the difference of the
// vmem.Stats fields the paper's costs are written in across one step,
// plus the simulated kernel time those counts cost under cost.Default.
// `go test ./internal/snapshot -update` rewrites the file, so every
// change to a figure is a reviewed diff. Four sections:
//
//   - Table 1: each strategy × {a fresh 64-page column, the same column
//     after 8 seeded writes to scattered pages under a pinned snapshot}
//     × {create a snapshot, the first write to each page, release}.
//   - Fig 5a: create cost against source VMAs, made by 0…31 seeded
//     scattered writes under a pinned snapshot (1…63 VMAs).
//   - Fig 5b: the first write to 1, 8 and 64 pages under a pinned
//     snapshot: kernel COW breaks against manual-COW signal hooks.
//   - Touched regions: one Snapshot call per captured region, 1…8 of
//     eight mapped regions, the way the engine captures columns lazily.
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
// copies every PTE of the process at create, so with eight regions
// mapped each captured region costs the whole image; tearing its child
// down enters no simulated call.
func TestPaperFigures(t *testing.T) {
	got := renderFigures(t)
	if *update {
		if err := os.WriteFile(goldenFigures, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got: %s\nwant: %s", goldenFigures, i+1, g, w)
		}
	}
	t.Log("if the change is intended, review it and rerun with -update")
}

func renderFigures(t *testing.T) []byte {
	var buf bytes.Buffer
	buf.WriteString("# The paper's Table 1 and Figure 5 as exact simulated-kernel counts.\n" +
		"# Each row is the vmem.Stats difference across one step; sim_us is its\n" +
		"# SimTime under cost.Default. Written by TestPaperFigures; regenerate\n" +
		"# with: go test ./internal/snapshot -update\n")

	tab := newFigureTable(&buf, "Table 1: one 64-page column, fresh and after 8 seeded scattered writes under a pinned snapshot",
		"strategy", "source", "vmas", "step")
	for _, s := range allStrategies {
		for _, writes := range []int{0, 8} {
			h, reg := figureColumn(t, s.kind)
			source := "fresh"
			var pinned Snap
			if writes > 0 {
				source = fmt.Sprintf("%d writes", writes)
				pinned = snapshotOf(t, h, reg)
				scatterWrites(h.proc, reg, writes)
			}
			vmas := h.proc.NumVMAsIn(reg.Addr, reg.Len)
			var snap Snap
			tab.row(measure(h.proc, func() { snap = snapshotOf(t, h, reg) }), s.label, source, vmas, "create")
			tab.row(measure(h.proc, func() { writePages(h.proc, reg, figurePages) }), s.label, source, vmas, "first write per page")
			tab.row(measure(h.proc, snap.Release), s.label, source, vmas, "release")
			if pinned != nil {
				pinned.Release()
			}
		}
	}
	tab.flush()

	tab = newFigureTable(&buf, "Fig 5a: create cost against source VMAs, after seeded scattered writes under a pinned snapshot",
		"strategy", "writes", "vmas")
	for _, s := range allStrategies {
		for _, writes := range []int{0, 1, 2, 4, 8, 16, figurePages/2 - 1} {
			h, reg := figureColumn(t, s.kind)
			pinned := snapshotOf(t, h, reg)
			scatterWrites(h.proc, reg, writes)
			var snap Snap
			d := measure(h.proc, func() { snap = snapshotOf(t, h, reg) })
			tab.row(d, s.label, writes, h.proc.NumVMAsIn(reg.Addr, reg.Len))
			snap.Release()
			pinned.Release()
		}
	}
	tab.flush()

	tab = newFigureTable(&buf, "Fig 5b: first write to evenly spaced pages of a 64-page column under a pinned snapshot",
		"strategy", "pages")
	for _, s := range allStrategies {
		for _, pages := range []int{1, 8, figurePages} {
			h, reg := figureColumn(t, s.kind)
			pinned := snapshotOf(t, h, reg)
			tab.row(measure(h.proc, func() { writePages(h.proc, reg, pages) }), s.label, pages)
			pinned.Release()
		}
	}
	tab.flush()

	const mapped = 8
	tab = newFigureTable(&buf, fmt.Sprintf("Touched regions: %d 64-page regions mapped, one Snapshot call per captured region", mapped),
		"strategy", "captured")
	for _, s := range allStrategies {
		for _, captured := range []int{1, 2, 4, mapped} {
			h := newHarness(t, s.kind)
			regs := make([]Region, mapped)
			for i := range regs {
				regs[i] = h.region(t, figurePages)
				fillRegion(h.proc, regs[i], uint64(i))
			}
			snaps := make([]Snap, captured)
			tab.row(measure(h.proc, func() {
				for i := range snaps {
					snaps[i] = snapshotOf(t, h, regs[i])
				}
			}), s.label, captured)
			for _, snap := range snaps {
				snap.Release()
			}
		}
	}
	tab.flush()
	return buf.Bytes()
}

// figureColumn returns a fresh harness for kind and one filled
// figurePages column in it.
func figureColumn(t *testing.T, kind string) (*harness, Region) {
	h := newHarness(t, kind)
	reg := h.region(t, figurePages)
	fillRegion(h.proc, reg, 0)
	return h, reg
}

func snapshotOf(t *testing.T, h *harness, reg Region) Snap {
	t.Helper()
	snap, err := h.strategy.Snapshot([]Region{reg})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// scatterWrites stores to n of the column's odd pages 1..61 — never
// adjacent, never the first or last — in a seeded order, so every n
// writes a prefix of the same sequence.
func scatterWrites(p *vmem.Process, reg Region, n int) {
	for _, i := range rand.New(rand.NewSource(1)).Perm(figurePages/2 - 1)[:n] {
		p.Store(reg.Addr+uint64(2*i+1)*pageSize, 1)
	}
}

// writePages stores to n evenly spaced pages of the column, starting at
// its first.
func writePages(p *vmem.Process, reg Region, n int) {
	for i := 0; i < n; i++ {
		p.Store(reg.Addr+uint64(i*figurePages/n)*pageSize, 7)
	}
}

// measure runs step and returns the kernel events it counted in proc.
func measure(proc *vmem.Process, step func()) vmem.Stats {
	before := proc.Stats()
	step()
	after := proc.Stats()
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

// figureTable is one section of the golden file: a title, a header of
// the row's keys and the counted fields, and aligned rows in the order
// they were added.
type figureTable struct{ tw *tabwriter.Writer }

func newFigureTable(buf *bytes.Buffer, title string, keys ...string) figureTable {
	fmt.Fprintf(buf, "\n## %s\n", title)
	tw := tabwriter.NewWriter(buf, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(keys, "\t")+
		"\tSyscalls\tMmaps\tVMSnapshots\tVMAOps\tPTECopies\tMinorFaults\tCOWBreaks\tSignalHooks\tWordsCopied\tsim_us")
	return figureTable{tw}
}

func (f figureTable) row(d vmem.Stats, keys ...any) {
	for _, k := range keys {
		fmt.Fprintf(f.tw, "%v\t", k)
	}
	sim := d.SimTime(cost.Default)
	fmt.Fprintf(f.tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
		d.Syscalls, d.Mmaps, d.VMSnapshots, d.VMAOps, d.PTECopies, d.MinorFaults, d.COWBreaks, d.SignalHooks, d.WordsCopied,
		strconv.FormatFloat(float64(sim.Nanoseconds())/1e3, 'f', -1, 64))
}

func (f figureTable) flush() { f.tw.Flush() }
