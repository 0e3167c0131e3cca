// Package index implements transactional secondary indexes over the
// engine's MVCC column store. An index maps column values to row ids
// through entries that carry birth/death commit timestamps exactly
// like the per-table row-visibility arrays: an entry is visible at
// snapshot timestamp ts iff birth <= ts && (death == 0 || death > ts),
// so a reader probing at its generation's timestamp sees precisely the
// value→row associations its generation should — updates never remove
// entries, they death-stamp the displaced one and birth a new one.
//
// Two physical layouts back the same entry model:
//
//   - Hash: a bucket map keyed by value. O(1) equality probes; range
//     probes are declined (except the degenerate lo == hi point).
//   - Ordered: sorted runs merged geometrically, LSM-style. An
//     unsorted append buffer absorbs maintenance writes and is flushed
//     as a sorted run when full; adjacent runs of comparable size are
//     merged so probe cost stays O(runs · log n) with runs logarithmic
//     in n. Serves both equality and range probes.
//
// Writers (Add/Insert/Kill/Prune) run inside the owning commit shard's
// critical section and take the exclusive lock; readers probe under
// the shared lock, so probes never block each other and the
// commit-shard lock order establishes happens-before with the
// snapshot-generation watermark.
//
// minTS is the build floor: an index built online over an existing
// table cannot index the pre-build values that live only in version
// chains, so probes at ts < minTS are refused (Valid reports false)
// and the caller falls back to the scan path, which repairs from
// chains. Indexes built at table creation or during recovery (where
// chains are empty) use minTS 0.
package index

import (
	"sort"
	"sync"
)

// Kind selects the physical index layout.
type Kind uint8

// Index kinds. None is the zero value so an un-annotated column
// declaration means "no index".
const (
	None Kind = iota
	Hash
	Ordered
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Hash:
		return "hash"
	case Ordered:
		return "ordered"
	}
	return "invalid"
}

// Valid reports whether k names an actual index layout.
func (k Kind) Valid() bool { return k == Hash || k == Ordered }

// entry is one value→row association alive over [birth, death).
// death == 0 means still live. A row has at most one entry visible at
// any timestamp for a given column: value changes kill the old entry
// at the commit timestamp that births the new one.
type entry struct {
	val          int64
	birth, death uint64
	row          int32
}

func (e *entry) visibleAt(ts uint64) bool {
	return e.birth <= ts && (e.death == 0 || e.death > ts)
}

// bufMax bounds the ordered index's unsorted append buffer; a full
// buffer is sorted and flushed as a run.
const bufMax = 512

// Index is one column's secondary index. All methods are safe for
// concurrent use; writers exclude readers but readers share.
type Index struct {
	kind  Kind
	minTS uint64

	mu      sync.RWMutex
	buckets map[int64][]entry // Hash: value → entries
	runs    [][]entry         // Ordered: each sorted by (val, row, birth)
	buf     []entry           // Ordered: unsorted tail, len < bufMax after any writer
	n       int               // total entries across the structure
	nLive   int               // of those, entries with death == 0
}

// New returns an empty index of the given kind. Probes at timestamps
// below minTS are refused (see the package comment).
func New(kind Kind, minTS uint64) *Index {
	ix := &Index{kind: kind, minTS: minTS}
	if kind == Hash {
		ix.buckets = make(map[int64][]entry)
	}
	return ix
}

// Kind returns the physical layout.
func (ix *Index) Kind() Kind { return ix.kind }

// MinTS returns the build floor.
func (ix *Index) MinTS() uint64 { return ix.minTS }

// Valid reports whether probes at ts can be served: readers below the
// build floor must use the scan path.
func (ix *Index) Valid(ts uint64) bool { return ts >= ix.minTS }

// Len returns the total entry count, live and death-stamped.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.n
}

// LiveLen returns the live (not death-stamped) entry count: the
// associations a probe at the current timestamp can actually return.
// Len minus LiveLen is the churn backlog awaiting Prune.
func (ix *Index) LiveLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nLive
}

// Add records that row carries val from commit timestamp ts on.
func (ix *Index) Add(val int64, row int, ts uint64) { ix.Insert(val, row, ts, 0) }

// Insert records a raw entry with explicit birth and death timestamps.
// Online builds use it to copy a row's actual visibility extent, so a
// probe at any servable timestamp answers row visibility exactly.
func (ix *Index) Insert(val int64, row int, birth, death uint64) {
	e := entry{val: val, row: int32(row), birth: birth, death: death}
	ix.mu.Lock()
	ix.n++
	if death == 0 {
		ix.nLive++
	}
	if ix.kind == Hash {
		ix.buckets[val] = append(ix.buckets[val], e)
	} else {
		ix.buf = append(ix.buf, e)
		if len(ix.buf) >= bufMax {
			ix.flushLocked()
		}
	}
	ix.mu.Unlock()
}

// Kill death-stamps the live entry associating row with val at commit
// timestamp ts: readers at or above ts no longer see it. It reports
// whether a live entry was found; false means the association predates
// the index build, which is fine — those readers scan.
func (ix *Index) Kill(val int64, row int, ts uint64) bool {
	r := int32(row)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kind == Hash {
		b := ix.buckets[val]
		for i := len(b) - 1; i >= 0; i-- { // live entry is the newest
			if b[i].row == r && b[i].death == 0 {
				b[i].death = ts
				ix.nLive--
				return true
			}
		}
		return false
	}
	for i := len(ix.buf) - 1; i >= 0; i-- {
		e := &ix.buf[i]
		if e.val == val && e.row == r && e.death == 0 {
			e.death = ts
			ix.nLive--
			return true
		}
	}
	for ri := len(ix.runs) - 1; ri >= 0; ri-- {
		run := ix.runs[ri]
		i := sort.Search(len(run), func(i int) bool { return run[i].val >= val })
		for ; i < len(run) && run[i].val == val; i++ {
			if run[i].row == r && run[i].death == 0 {
				run[i].death = ts
				ix.nLive--
				return true
			}
		}
	}
	return false
}

// flushLocked sorts the append buffer into a run and merges adjacent
// runs of comparable size, keeping run count logarithmic.
func (ix *Index) flushLocked() {
	run := make([]entry, len(ix.buf))
	copy(run, ix.buf)
	ix.buf = ix.buf[:0]
	sortRun(run)
	ix.runs = append(ix.runs, run)
	for len(ix.runs) >= 2 {
		a := ix.runs[len(ix.runs)-2]
		b := ix.runs[len(ix.runs)-1]
		if len(a) > 2*len(b) {
			break
		}
		ix.runs = ix.runs[:len(ix.runs)-2]
		ix.runs = append(ix.runs, mergeRuns(a, b))
	}
}

func entryLess(a, b *entry) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	if a.row != b.row {
		return a.row < b.row
	}
	return a.birth < b.birth
}

func sortRun(run []entry) {
	sort.Slice(run, func(i, j int) bool { return entryLess(&run[i], &run[j]) })
}

func mergeRuns(a, b []entry) []entry {
	out := make([]entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if entryLess(&b[j], &a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ProbeEq returns the rows whose entry for val is visible at ts, in
// ascending row order. ok is false when the probe cannot be served
// (ts below the build floor).
func (ix *Index) ProbeEq(val int64, ts uint64) (rows []int, ok bool) {
	return ix.ProbeRange(val, val, ts)
}

// ProbeRange returns the rows holding a value in [lo, hi] visible at
// ts, in ascending row order. ok is false when the probe cannot be
// served: ts below the build floor, or a true range on a hash index.
func (ix *Index) ProbeRange(lo, hi int64, ts uint64) (rows []int, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ts < ix.minTS || lo > hi {
		return nil, ts >= ix.minTS
	}
	if ix.kind == Hash {
		if lo != hi {
			return nil, false
		}
		for i := range ix.buckets[lo] {
			if e := &ix.buckets[lo][i]; e.visibleAt(ts) {
				rows = append(rows, int(e.row))
			}
		}
	} else {
		for _, run := range ix.runs {
			i := sort.Search(len(run), func(i int) bool { return run[i].val >= lo })
			for ; i < len(run) && run[i].val <= hi; i++ {
				if run[i].visibleAt(ts) {
					rows = append(rows, int(run[i].row))
				}
			}
		}
		for i := range ix.buf {
			if e := &ix.buf[i]; e.val >= lo && e.val <= hi && e.visibleAt(ts) {
				rows = append(rows, int(e.row))
			}
		}
	}
	sort.Ints(rows)
	return rows, true
}

// estimateSampleMax bounds the entries EstimateRange actually tests for
// visibility per contiguous segment; larger segments are sampled at a
// stride and scaled back up, keeping the estimate O(log n + samples)
// however wide the range.
const estimateSampleMax = 64

// EstimateRange estimates the rows a probe of [lo, hi] at ts would
// return: the in-range entries of each run segment (and the hash
// bucket) have their visibility at ts tested — exactly below the sample
// budget, by a strided sample scaled back up above it. Sampling WITHIN
// the range is what makes the estimate track skewed churn: an index
// whose dead entries concentrate in one value range (a hot key churned
// by updates, a batch delete) estimates that range near zero even while
// the index-wide live fraction stays high, so the planner's selectivity
// gate stops routing probes into dead ranges — and keeps serving ranges
// whose entries are live even when some other range churned. A strided
// sample is an estimate, not a bound, in either direction. ok mirrors
// ProbeRange's serveability (ignoring the build floor, which the caller
// checks via Valid).
func (ix *Index) EstimateRange(lo, hi int64, ts uint64) (n int, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if lo > hi {
		return 0, true
	}
	if ix.kind == Hash {
		if lo != hi {
			return 0, false
		}
		return sampleVisible(ix.buckets[lo], ts), true
	}
	for _, run := range ix.runs {
		i := sort.Search(len(run), func(i int) bool { return run[i].val >= lo })
		j := sort.Search(len(run), func(i int) bool { return run[i].val > hi })
		n += sampleVisible(run[i:j], ts)
	}
	for i := range ix.buf {
		if e := &ix.buf[i]; e.val >= lo && e.val <= hi && e.visibleAt(ts) {
			n++
		}
	}
	return n, true
}

// sampleVisible estimates how many of seg's entries are visible at ts:
// an exact count below the sample budget, a strided sample scaled back
// up (rounding up, so any live sample keeps the estimate nonzero)
// above it.
func sampleVisible(seg []entry, ts uint64) int {
	if len(seg) <= estimateSampleMax {
		live := 0
		for i := range seg {
			if seg[i].visibleAt(ts) {
				live++
			}
		}
		return live
	}
	stride := len(seg) / estimateSampleMax
	live, sampled := 0, 0
	for i := 0; i < len(seg); i += stride {
		if seg[i].visibleAt(ts) {
			live++
		}
		sampled++
	}
	return int((int64(live)*int64(len(seg)) + int64(sampled) - 1) / int64(sampled))
}

// Prune drops entries dead at or below floor — no live reader can see
// them once every snapshot generation's timestamp is at or above
// floor. The engine's reclaimer calls it with the version-chain GC
// floor.
func (ix *Index) Prune(floor uint64) (removed int) {
	dead := func(e *entry) bool { return e.death != 0 && e.death <= floor }
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kind == Hash {
		for val, b := range ix.buckets {
			kept := b[:0]
			for i := range b {
				if !dead(&b[i]) {
					kept = append(kept, b[i])
				}
			}
			if len(kept) == 0 {
				delete(ix.buckets, val)
			} else {
				ix.buckets[val] = kept
			}
			removed += len(b) - len(kept)
		}
	} else {
		live := ix.runs[:0]
		for _, run := range ix.runs {
			kept := run[:0]
			for i := range run {
				if !dead(&run[i]) {
					kept = append(kept, run[i])
				}
			}
			removed += len(run) - len(kept)
			if len(kept) > 0 {
				live = append(live, kept)
			}
		}
		ix.runs = live
		kept := ix.buf[:0]
		for i := range ix.buf {
			if !dead(&ix.buf[i]) {
				kept = append(kept, ix.buf[i])
			}
		}
		removed += len(ix.buf) - len(kept)
		ix.buf = kept
	}
	ix.n -= removed
	return removed
}
