package query

import (
	"sort"
	"sync/atomic"
)

// Op is one streaming operator of a per-worker pipeline. Next returns
// the operator's next batch, or nil at end of stream. A returned batch
// is owned by the producing operator and valid until the next call.
type Op interface {
	Next() (*Batch, error)
}

// scanOp is the pipeline source: it claims morsels from the shared
// dispatcher (work-stealing via one atomic counter, the morsel-driven
// scheme of Leis et al. adapted to snapshot scans), prunes each block
// whose zones cannot satisfy the scan predicate, and reads the
// surviving blocks' visible rows into a reused column-major batch.
type scanOp struct {
	p          *plan
	next       *atomic.Int64
	nM         int // total morsels
	morselRows int // rows per morsel; a multiple of BlockRows
	bound      int // probe scan bound

	readSlots []int // probe slots filled from ReadBlock
	readCols  []int // their probe column indices, parallel to readSlots
	idSlots   []int // probe slots carrying RowID

	rowIDs []int64
	views  [][]int64 // scratch: per-call windows into batch columns
	batch  Batch
	st     *ExecStats
	lim    *limiter // early exit for Limit; nil without one
}

func newScanOp(p *plan, next *atomic.Int64, nM, morselRows, bound int, st *ExecStats, lim *limiter) *scanOp {
	s := &scanOp{
		p: p, next: next, nM: nM, morselRows: morselRows, bound: bound,
		rowIDs: make([]int64, morselRows),
		st:     st,
		lim:    lim,
	}
	s.batch.Cols = make([][]int64, len(p.slots))
	for i, sl := range p.slots {
		if sl.src != srcProbe {
			continue // a join fills it downstream
		}
		s.batch.Cols[i] = make([]int64, morselRows)
		if sl.col < 0 {
			s.idSlots = append(s.idSlots, i)
		} else {
			s.readSlots = append(s.readSlots, i)
			s.readCols = append(s.readCols, sl.col)
		}
	}
	s.views = make([][]int64, len(s.readSlots))
	return s
}

func (s *scanOp) Next() (*Batch, error) {
	br := s.p.probe.BlockRows()
	for {
		if s.lim != nil && s.lim.stop.Load() {
			return nil, nil
		}
		m := int(s.next.Add(1) - 1)
		if m >= s.nM {
			return nil, nil
		}
		lo := m * s.morselRows
		hi := lo + s.morselRows
		if hi > s.bound {
			hi = s.bound
		}
		s.st.Morsels++
		n, scanned := 0, false
		for blo := lo; blo < hi; blo += br {
			bhi := blo + br
			if bhi > hi {
				bhi = hi
			}
			if s.prunable(blo/br, blo, bhi) {
				s.st.BlocksSkipped++
				continue
			}
			scanned = true
			s.st.BlocksScanned++
			s.st.RowsScanned += int64(bhi - blo)
			for i, slot := range s.readSlots {
				s.views[i] = s.batch.Cols[slot][n:]
			}
			k, err := s.p.probe.ReadBlock(blo, bhi, s.readCols, s.rowIDs[n:], s.views)
			if err != nil {
				return nil, err
			}
			n += k
		}
		if !scanned {
			// Every block was pruned: the morsel surfaces no batch, so
			// report it finished here for the limiter's watermark.
			s.st.MorselsSkipped++
			if s.lim != nil {
				s.lim.finish(m, 0)
			}
			continue
		}
		for _, slot := range s.idSlots {
			copy(s.batch.Cols[slot][:n], s.rowIDs[:n])
		}
		s.batch.Morsel, s.batch.N = m, n
		return &s.batch, nil
	}
}

// prunable reports whether block blk (rows [blo, bhi)) provably holds
// no matching row, using zone maps plus the block's row-index range for
// RowID leaves.
func (s *scanOp) prunable(blk, blo, bhi int) bool {
	if s.p.noPrune || s.p.scanPred == nil {
		return false
	}
	return !s.p.scanPred.satisfiable(func(slot int) (int64, int64, bool) {
		sl := s.p.slots[slot]
		if sl.src != srcProbe {
			return 0, 0, false
		}
		if sl.col < 0 {
			return int64(blo), int64(bhi - 1), true
		}
		return s.p.probe.Zone(sl.col, blk)
	})
}

// indexScanOp is the pipeline source when an index probe replaced the
// block scan: the probed rows (ascending) are partitioned by the same
// morsel numbering the scan would use, workers claim morsels from the
// same shared dispatcher, and each claimed morsel's rows are resolved
// through the table's snapshot read path. Identical morsel numbering
// keeps the merged result byte-for-byte what the scan path returns.
type indexScanOp struct {
	p          *plan
	t          IndexedTable
	next       *atomic.Int64
	nM         int
	morselRows int
	rows       []int64 // probed rows, strictly ascending

	readSlots []int
	readCols  []int
	idSlots   []int

	views [][]int64
	batch Batch
	st    *ExecStats
	lim   *limiter
}

func newIndexScanOp(p *plan, next *atomic.Int64, nM, morselRows int, st *ExecStats, lim *limiter) *indexScanOp {
	s := &indexScanOp{
		p: p, t: p.probe.(IndexedTable), next: next, nM: nM, morselRows: morselRows,
		rows: p.idxRows, st: st, lim: lim,
	}
	s.batch.Cols = make([][]int64, len(p.slots))
	for i, sl := range p.slots {
		if sl.src != srcProbe {
			continue
		}
		s.batch.Cols[i] = make([]int64, morselRows)
		if sl.col < 0 {
			s.idSlots = append(s.idSlots, i)
		} else {
			s.readSlots = append(s.readSlots, i)
			s.readCols = append(s.readCols, sl.col)
		}
	}
	s.views = make([][]int64, len(s.readSlots))
	return s
}

func (s *indexScanOp) Next() (*Batch, error) {
	for {
		if s.lim != nil && s.lim.stop.Load() {
			return nil, nil
		}
		m := int(s.next.Add(1) - 1)
		if m >= s.nM {
			return nil, nil
		}
		s.st.Morsels++
		lo, hi := int64(m*s.morselRows), int64((m+1)*s.morselRows)
		a := sort.Search(len(s.rows), func(i int) bool { return s.rows[i] >= lo })
		b := a + sort.Search(len(s.rows)-a, func(i int) bool { return s.rows[a+i] >= hi })
		if a == b {
			s.st.MorselsSkipped++
			if s.lim != nil {
				s.lim.finish(m, 0)
			}
			continue
		}
		seg := s.rows[a:b]
		n := len(seg)
		for i, slot := range s.readSlots {
			s.views[i] = s.batch.Cols[slot][:n]
		}
		if err := s.t.ReadRows(seg, s.readCols, s.views); err != nil {
			return nil, err
		}
		for _, slot := range s.idSlots {
			copy(s.batch.Cols[slot][:n], seg)
		}
		s.st.RowsScanned += int64(n)
		s.batch.Morsel, s.batch.N = m, n
		return &s.batch, nil
	}
}

// filterOp drops the rows of its child's batches that fail the bound
// predicate, compacting survivors in place (the child rewrites the
// batch on its next Next call anyway). A batch filtered down to
// nothing is returned empty, not swallowed, so the worker still
// observes its morsel.
type filterOp struct {
	child Op
	pred  *boundPred
}

func (f *filterOp) Next() (*Batch, error) {
	b, err := f.child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	var i int
	get := func(slot int) int64 { return b.Cols[slot][i] }
	n := 0
	for i = 0; i < b.N; i++ {
		if !f.pred.eval(get) {
			continue
		}
		if n != i {
			for _, c := range b.Cols {
				if c != nil {
					c[n] = c[i]
				}
			}
		}
		n++
	}
	b.N = n
	return b, nil
}

// joinOp is the probe side of an equi hash join. The build side is
// materialized once (joinPlan.build*) and shared read-only by every
// worker; probing streams batches through, fanning each probe row out
// to its matches. Output batches never span child batches, so rows
// stay grouped by morsel and result order stays deterministic.
type joinOp struct {
	child Op
	j     *joinPlan
	cap   int

	pending *Batch // current child batch, nil when drained
	pi      int    // probe row cursor in pending
	mi      int    // match cursor within the current probe row
	out     Batch
}

func (o *joinOp) Next() (*Batch, error) {
	if o.pending == nil {
		b, err := o.child.Next()
		if b == nil || err != nil {
			return nil, err
		}
		o.ensureOut(b)
		o.pending, o.pi, o.mi = b, 0, 0
	}
	b, out := o.pending, &o.out
	out.Morsel = b.Morsel
	// The cursors stay in locals while rows are copied: the operators of
	// all workers are allocated side by side, so a store into o per row
	// would contend for cache lines with the neighbouring worker.
	pi, mi, n := o.pi, o.mi, 0
	for ; pi < b.N; pi++ {
		matches := o.j.ht[b.Cols[o.j.probeSlot][pi]]
		for ; mi < len(matches); mi++ {
			if n == o.cap {
				o.pi, o.mi, out.N = pi, mi, n
				return out, nil
			}
			r := matches[mi]
			for si, c := range b.Cols {
				if c != nil {
					out.Cols[si][n] = c[pi]
				}
			}
			for k, slot := range o.j.slots {
				out.Cols[slot][n] = o.j.rows[k][r]
			}
			n++
		}
		mi = 0
	}
	o.pending, out.N = nil, n
	return out, nil
}

// ensureOut sizes the output batch: every slot the child produces plus
// the slots this join fills.
func (o *joinOp) ensureOut(child *Batch) {
	if o.out.Cols != nil {
		return
	}
	o.out.Cols = make([][]int64, len(child.Cols))
	for si, c := range child.Cols {
		if c != nil {
			o.out.Cols[si] = make([]int64, o.cap)
		}
	}
	for _, slot := range o.j.slots {
		if o.out.Cols[slot] == nil {
			o.out.Cols[slot] = make([]int64, o.cap)
		}
	}
}
