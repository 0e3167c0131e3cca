// Package query is ankerdb's streaming query engine. A query executes
// against pinned snapshot state exposed through the Table interface:
// composable operators (scan, filter, hash join, group-by/aggregate)
// stream column-major batches through per-worker pipelines, morsels of
// the probe table are dispatched to workers through one atomic
// counter, and zone maps prune blocks whose value bounds cannot
// satisfy the scan predicate before a single row is read. A worker
// returns its P to the scheduler at every morsel boundary, so
// goroutines that become due during a scan (an OLTP writer's timer)
// wait at most one morsel, not the runtime's 10 ms preemption. Results
// merge deterministically: the same query returns the same rows in
// the same order whether it ran on one worker or many.
package query

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// morselBlocks is the number of zone-map blocks per morsel: large
// enough to amortize dispatch, small enough to balance skew.
const morselBlocks = 4

// ExecStats describes how one query executed, in particular how much
// scan work zone-map pruning avoided. Block counts cover the probe
// scan; build-side scans of joins are not included.
type ExecStats struct {
	Morsels        int64 // probe morsels dispatched
	MorselsSkipped int64 // morsels whose every block was pruned
	BlocksScanned  int64 // probe blocks read
	BlocksSkipped  int64 // probe blocks pruned by zone maps
	RowsScanned    int64 // rows of scanned probe blocks, or rows read via index
	RowsEmitted    int64 // rows in the final result
	IndexProbes    int64 // secondary-index probes that replaced the probe scan

	// Operators is the per-operator row breakdown in pipeline order:
	// scan (or index-scan), the scan filter, each join, the post-join
	// filter, and — for aggregating queries — a final "aggregate"
	// pseudo-operator. RowsIn chains from the previous operator's
	// RowsOut, so RowsIn - RowsOut is the rows an operator dropped.
	Operators []OpStat
	// IndexRouted reports whether a secondary index served the probe
	// scan (the index-scan path) instead of the morsel scan.
	IndexRouted bool
}

// OpStat is one operator's row flow within a query execution.
type OpStat struct {
	Op      string // operator label: scan, index-scan, filter, join(t), post-filter, aggregate
	RowsIn  int64  // rows entering the operator
	RowsOut int64  // rows it passed downstream
}

func (s *ExecStats) add(o *ExecStats) {
	s.Morsels += o.Morsels
	s.MorselsSkipped += o.MorselsSkipped
	s.BlocksScanned += o.BlocksScanned
	s.BlocksSkipped += o.BlocksSkipped
	s.RowsScanned += o.RowsScanned
	s.RowsEmitted += o.RowsEmitted
	s.IndexProbes += o.IndexProbes
	s.IndexRouted = s.IndexRouted || o.IndexRouted
	switch {
	case len(s.Operators) == 0:
		// Alias rather than copy: per-worker stats are discarded after
		// the merge, so the first worker's slice becomes the result's.
		s.Operators = o.Operators
	case len(s.Operators) == len(o.Operators):
		for i := range s.Operators {
			s.Operators[i].RowsIn += o.Operators[i].RowsIn
			s.Operators[i].RowsOut += o.Operators[i].RowsOut
		}
	}
}

// opNames returns the operator labels of the bound pipeline, in the
// order chain builds it. Every worker shares the same shape, so
// per-worker Operators slices merge element-wise.
func (p *plan) opNames() []string {
	names := make([]string, 0, 3+len(p.joins))
	if p.useIdx {
		names = append(names, "index-scan")
	} else {
		names = append(names, "scan")
	}
	if p.scanPred != nil {
		names = append(names, "filter")
	}
	for _, j := range p.joins {
		names = append(names, "join("+j.build.Name()+")")
	}
	if p.postPred != nil {
		names = append(names, "post-filter")
	}
	return names
}

// countOp counts the rows an operator stage emits into its OpStat.
// It is the only stats hook in the pipeline: one add per batch.
type countOp struct {
	child Op
	st    *OpStat
}

func (c *countOp) Next() (*Batch, error) {
	b, err := c.child.Next()
	if b != nil {
		c.st.RowsOut += int64(b.N)
	}
	return b, err
}

// srcProbe marks a slot read from the probe (scanned) table; any other
// src is the index of the join whose build side produces it.
const srcProbe = -1

// slotRef is one column of the pipeline schema: where a slot's values
// come from.
type slotRef struct {
	name  string // plain column name (RowID for the row pseudo-column)
	src   int    // srcProbe or join index
	col   int    // column index in the source table, -1 for RowID
	table Table
	isStr bool
}

// joinPlan is one inner equi hash join: which probe-side slot matches
// which build-side column, which schema slots the build side fills,
// and the materialized build state shared read-only by every worker.
type joinPlan struct {
	build       Table
	probeKey    string
	buildKey    string
	probeSlot   int        // resolved probe-side key slot
	buildKeyCol int        // resolved build-side key column
	slots       []int      // schema slots this join fills
	buildCols   []int      // their build column indices, parallel to slots
	pred        *boundPred // build-only conjuncts, applied while building

	ht   map[int64][]int32 // build key -> materialized build row indices
	rows [][]int64         // materialized values, parallel to slots
	n    int32
}

// plan is a fully bound query.
type plan struct {
	probe      Table
	slots      []slotRef
	joins      []*joinPlan
	scanPred   *boundPred // probe-only conjuncts: prune + filter at scan
	postPred   *boundPred // conjuncts spanning probe and build slots
	groupSlots []int
	aggs       []boundAgg
	outSlots   []int // projection, when not aggregating
	morsels    int
	limit      int
	noPrune    bool

	idxRows []int64 // index-probe result replacing the scan; nil = scan
	useIdx  bool    // idxRows is authoritative (it may be empty)
}

// Builder assembles a query against a probe table. Methods return the
// builder for chaining; errors surface from Run.
type Builder struct {
	probe    Table
	preds    []Pred
	joins    []*joinPlan
	groupBy  []string
	aggs     []AggSpec
	sel      []string
	morsels  int
	limit    int
	noPrune  bool
	firstErr error
}

// New starts a query scanning t.
func New(t Table) *Builder {
	b := &Builder{probe: t}
	if t == nil {
		b.fail(errors.New("query: nil table"))
	}
	return b
}

func (b *Builder) fail(err error) *Builder {
	if b.firstErr == nil {
		b.firstErr = err
	}
	return b
}

// Where restricts the query to rows matching p; multiple calls AND.
func (b *Builder) Where(p Pred) *Builder {
	b.preds = append(b.preds, p)
	return b
}

// Join adds an inner equi join: rows where probeCol (resolved like any
// referenced column, so it may come from an earlier join) equals
// buildCol of build. The build side is hashed once; the probe side
// streams.
func (b *Builder) Join(build Table, probeCol, buildCol string) *Builder {
	if build == nil {
		return b.fail(errors.New("query: Join with nil table"))
	}
	b.joins = append(b.joins, &joinPlan{build: build, probeKey: probeCol, buildKey: buildCol})
	return b
}

// GroupBy groups the aggregation by the given columns.
func (b *Builder) GroupBy(cols ...string) *Builder {
	b.groupBy = append(b.groupBy, cols...)
	return b
}

// Aggregate makes the query aggregating, computing the given specs
// (per group when GroupBy was set, else over all qualifying rows).
func (b *Builder) Aggregate(aggs ...AggSpec) *Builder {
	b.aggs = append(b.aggs, aggs...)
	return b
}

// Select projects the named columns, in order. Without it a
// non-aggregating query returns every probe column followed by every
// joined table's columns.
func (b *Builder) Select(cols ...string) *Builder {
	b.sel = append(b.sel, cols...)
	return b
}

// Morsels caps the number of parallel workers; default GOMAXPROCS.
func (b *Builder) Morsels(n int) *Builder {
	b.morsels = n
	return b
}

// Limit caps the result to its first n rows — the same n rows the
// unlimited query would return first, so the result stays
// deterministic. Non-aggregating queries stop dispatching morsels once
// a contiguous prefix of merged morsels holds n rows; aggregating
// queries still see every row (an aggregate needs them) and only trim
// the laid-out groups.
func (b *Builder) Limit(n int) *Builder {
	if n <= 0 {
		return b.fail(fmt.Errorf("query: Limit(%d), want a positive row count", n))
	}
	b.limit = n
	return b
}

// WithoutPruning disables zone-map pruning (every block is scanned)
// and index probes (the scan path runs even over an indexed column);
// useful to verify both against the plain scan and to measure their
// benefit.
func (b *Builder) WithoutPruning() *Builder {
	b.noPrune = true
	return b
}

// Run binds, executes and merges the query.
func (b *Builder) Run() (*Result, error) {
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	p, err := b.bind()
	if err != nil {
		return nil, err
	}
	return p.run()
}

// binder resolves column names to schema slots during bind, adding
// slots on first reference.
type binder struct {
	p     *plan
	known map[[2]int]int // (src, col) -> slot
}

// resolve finds name in the probe table or, failing that, each join's
// build table in order. Qualified "table.col" names pick the table
// explicitly.
func (bd *binder) resolve(name string) (int, error) {
	qual := ""
	if i := strings.IndexByte(name, '.'); i > 0 && name != RowID {
		qual, name = name[:i], name[i+1:]
	}
	if name == RowID && qual == "" {
		return bd.add(slotRef{name: RowID, src: srcProbe, col: -1, table: bd.p.probe}), nil
	}
	find := func(t Table, src int) (int, bool) {
		for ci, cn := range t.Columns() {
			if cn == name {
				return bd.add(slotRef{name: name, src: src, col: ci, table: t, isStr: t.IsString(ci)}), true
			}
		}
		return 0, false
	}
	if qual == "" || qual == bd.p.probe.Name() {
		if s, ok := find(bd.p.probe, srcProbe); ok {
			return s, nil
		}
	}
	for ji, j := range bd.p.joins {
		if qual != "" && qual != j.build.Name() {
			continue
		}
		if s, ok := find(j.build, ji); ok {
			return s, nil
		}
	}
	if qual != "" {
		return 0, fmt.Errorf("query: unknown column %s.%s", qual, name)
	}
	return 0, fmt.Errorf("query: unknown column %q", name)
}

func (bd *binder) add(r slotRef) int {
	key := [2]int{r.src, r.col}
	if s, ok := bd.known[key]; ok {
		return s
	}
	s := len(bd.p.slots)
	bd.p.slots = append(bd.p.slots, r)
	bd.known[key] = s
	return s
}

func (bd *binder) predColumn(name string) (int, bool, error) {
	s, err := bd.resolve(name)
	if err != nil {
		return 0, false, err
	}
	return s, bd.p.slots[s].isStr, nil
}

func (bd *binder) encodeSlot(slot int, s string) (int64, bool) {
	r := bd.p.slots[slot]
	return r.table.Encode(r.col, s)
}

// bind resolves every referenced name, routes predicate conjuncts to
// the scan, a join's build side, or the post-join filter, and fixes
// the output schema.
func (b *Builder) bind() (*plan, error) {
	p := &plan{probe: b.probe, joins: b.joins, morsels: b.morsels, limit: b.limit, noPrune: b.noPrune}
	if p.morsels < 1 {
		p.morsels = runtime.GOMAXPROCS(0)
	}
	bd := &binder{p: p, known: map[[2]int]int{}}

	// Join keys first: a probe key may come from an earlier join's
	// build side, so keys bind in join order.
	for ji, j := range p.joins {
		slot, err := bd.resolve(j.probeKey)
		if err != nil {
			return nil, err
		}
		if p.slots[slot].src >= ji {
			return nil, fmt.Errorf("query: join key %q not available before joining %q", j.probeKey, j.build.Name())
		}
		j.probeSlot = slot
		j.buildKeyCol = -1
		for ci, cn := range j.build.Columns() {
			if cn == j.buildKey {
				j.buildKeyCol = ci
				break
			}
		}
		if j.buildKeyCol < 0 {
			return nil, fmt.Errorf("query: unknown join column %s.%s", j.build.Name(), j.buildKey)
		}
		if p.slots[slot].isStr != j.build.IsString(j.buildKeyCol) {
			return nil, fmt.Errorf("query: join key type mismatch between %q and %s.%s", j.probeKey, j.build.Name(), j.buildKey)
		}
	}

	// Predicates: bind each conjunct separately and route it to the
	// earliest operator that has all its inputs.
	var scanKids, postKids []boundPred
	joinKids := make([][]boundPred, len(p.joins))
	for _, pr := range b.preds {
		for _, c := range pr.conjuncts() {
			bc, err := c.bind(bd, false)
			if err != nil {
				return nil, err
			}
			src, mixed, first := srcProbe, false, true
			bc.slots(func(slot int) {
				s := p.slots[slot].src
				if first {
					src, first = s, false
				} else if s != src {
					mixed = true
				}
			})
			switch {
			case mixed:
				postKids = append(postKids, bc)
			case src == srcProbe:
				scanKids = append(scanKids, bc)
			default:
				joinKids[src] = append(joinKids[src], bc)
			}
		}
	}
	if len(scanKids) > 0 {
		p.scanPred = &boundPred{op: pAnd, kids: scanKids}
	}
	if len(postKids) > 0 {
		p.postPred = &boundPred{op: pAnd, kids: postKids}
	}
	for ji, kids := range joinKids {
		if len(kids) > 0 {
			p.joins[ji].pred = &boundPred{op: pAnd, kids: kids}
		}
	}

	// Output schema.
	aggregating := len(b.aggs) > 0
	if len(b.groupBy) > 0 && !aggregating {
		return nil, errors.New("query: GroupBy requires Aggregate")
	}
	if aggregating && len(b.sel) > 0 {
		return nil, errors.New("query: Select and Aggregate are exclusive; aggregated output is GroupBy columns then aggregates")
	}
	if aggregating {
		for _, g := range b.groupBy {
			s, err := bd.resolve(g)
			if err != nil {
				return nil, err
			}
			p.groupSlots = append(p.groupSlots, s)
		}
		for _, a := range b.aggs {
			ba := boundAgg{kind: a.Kind, slot: -1}
			if a.Kind != AggCount {
				s, err := bd.resolve(a.Col)
				if err != nil {
					return nil, err
				}
				if p.slots[s].isStr {
					return nil, fmt.Errorf("query: aggregate over VARCHAR column %q", a.Col)
				}
				ba.slot = s
			}
			p.aggs = append(p.aggs, ba)
		}
	} else {
		sel := b.sel
		if len(sel) == 0 {
			sel = append(sel, b.probe.Columns()...)
			for _, j := range p.joins {
				for _, cn := range j.build.Columns() {
					sel = append(sel, j.build.Name()+"."+cn)
				}
			}
		}
		for _, name := range sel {
			s, err := bd.resolve(name)
			if err != nil {
				return nil, err
			}
			p.outSlots = append(p.outSlots, s)
		}
	}

	// Fix each join's build-side slot set now that all slots exist.
	for ji, j := range p.joins {
		for s, r := range p.slots {
			if r.src == ji {
				j.slots = append(j.slots, s)
				j.buildCols = append(j.buildCols, r.col)
			}
		}
	}
	return p, nil
}

// run executes a bound plan: prepare snapshots, materialize join build
// sides, fan morsels out to workers, merge.
func (p *plan) run() (*Result, error) {
	// A bare COUNT needs no scan at all: the visibility log answers it
	// in O(log n).
	if p.isBareCount() {
		if err := p.probe.Prepare(nil); err != nil {
			return nil, err
		}
		r := &Result{
			cols:    []string{"count()"},
			isFloat: []bool{false},
			strDec:  []func(int64) string{nil},
			data:    [][]int64{{p.probe.NumRows()}},
		}
		r.Stats.RowsEmitted = 1
		return r, nil
	}

	var probeCols []int
	seen := map[int]bool{}
	for _, r := range p.slots {
		if r.src == srcProbe && r.col >= 0 && !seen[r.col] {
			seen[r.col] = true
			probeCols = append(probeCols, r.col)
		}
	}
	if err := p.probe.Prepare(probeCols); err != nil {
		return nil, err
	}
	for _, j := range p.joins {
		if err := p.buildJoin(j); err != nil {
			return nil, err
		}
	}
	p.routeIndex()

	bound := p.probe.Rows()
	morselRows := p.probe.BlockRows() * morselBlocks
	nM := (bound + morselRows - 1) / morselRows
	workers := p.morsels
	if workers > nM {
		workers = nM
	}
	if workers < 1 {
		workers = 1
	}

	aggregating := len(p.aggs) > 0
	var perMorsel [][][]int64
	aggsW := make([]*aggregator, workers)
	if aggregating {
		for i := range aggsW {
			aggsW[i] = newAggregator(p.groupSlots, p.aggs)
		}
	} else {
		perMorsel = make([][][]int64, nM)
	}
	var lim *limiter
	if p.limit > 0 && !aggregating {
		lim = newLimiter(int64(p.limit), nM)
	}

	opNames := p.opNames()
	var next atomic.Int64
	wstats := make([]ExecStats, workers)
	// One flat backing array holds every worker's per-operator stats;
	// full-capacity subslices keep a later append from crossing into the
	// next worker's stretch.
	nOps := len(opNames)
	opsFlat := make([]OpStat, workers*nOps)
	for wi := range wstats {
		ops := opsFlat[wi*nOps : (wi+1)*nOps : (wi+1)*nOps]
		for i, name := range opNames {
			ops[i].Op = name
		}
		wstats[wi].Operators = ops
	}
	pipes := make([]pipeline, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := range pipes {
		w := &pipes[wi]
		*w = pipeline{
			op:  p.chain(&next, nM, morselRows, bound, &wstats[wi], lim),
			agg: aggsW[wi], perMorsel: perMorsel, outSlots: p.outSlots, lim: lim,
			next: &next, nM: nM, cur: -1, wg: &wg,
		}
		w.resume = w.run
		go w.resume()
	}
	wg.Wait()
	for i := range pipes {
		if err := pipes[i].err; err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for i := range wstats {
		res.Stats.add(&wstats[i])
	}
	res.Stats.IndexRouted = p.useIdx
	if p.useIdx {
		res.Stats.IndexProbes++
	}
	if aggregating {
		p.finalizeAgg(res, aggsW)
	} else {
		p.finalizeRows(res, perMorsel)
	}
	if p.limit > 0 && res.Len() > p.limit {
		for i := range res.data {
			res.data[i] = res.data[i][:p.limit]
		}
	}
	res.Stats.RowsEmitted = int64(res.Len())

	// Chain RowsIn from the upstream RowsOut (the source's input is the
	// rows it read), then account the aggregation step, whose output is
	// the laid-out groups.
	ops := res.Stats.Operators
	for i := range ops {
		if i == 0 {
			ops[i].RowsIn = res.Stats.RowsScanned
		} else {
			ops[i].RowsIn = ops[i-1].RowsOut
		}
	}
	if aggregating {
		in := res.Stats.RowsScanned
		if len(ops) > 0 {
			in = ops[len(ops)-1].RowsOut
		}
		res.Stats.Operators = append(ops, OpStat{Op: "aggregate", RowsIn: in, RowsOut: res.Stats.RowsEmitted})
	}
	return res, nil
}

// routeIndex offers the scan conjuncts to the probe table's secondary
// indexes: the first interval leaf on a probe column an index agrees to
// serve replaces the morsel scan with a direct read of the probed rows.
// The full scan predicate still filters downstream, so serving one
// conjunct of several is enough; declining (selectivity, kind, build
// floor) is the table's call. WithoutPruning forces the scan path.
func (p *plan) routeIndex() {
	if p.noPrune || p.scanPred == nil {
		return
	}
	it, ok := p.probe.(IndexedTable)
	if !ok {
		return
	}
	for i := range p.scanPred.kids {
		k := &p.scanPred.kids[i]
		if k.op != pCmp || k.lo > k.hi {
			continue
		}
		if sl := p.slots[k.col]; sl.src != srcProbe || sl.col < 0 {
			continue
		}
		if rows, served := it.ProbeIndex(p.slots[k.col].col, k.lo, k.hi); served {
			p.idxRows, p.useIdx = rows, true
			return
		}
	}
}

// limiter coordinates early exit for Limit(n): sources stop claiming
// morsels once a contiguous prefix of finished morsels already holds n
// output rows — everything the result can need. Each morsel is
// finished exactly once, by the worker that claimed it (or by the
// source itself when the morsel surfaces no batch).
type limiter struct {
	n    int64
	stop atomic.Bool

	mu     sync.Mutex
	counts []int64
	done   []bool
	next   int   // first unfinished morsel
	acc    int64 // output rows in the finished contiguous prefix
}

func newLimiter(n int64, nM int) *limiter {
	return &limiter{n: n, counts: make([]int64, nM), done: make([]bool, nM)}
}

// finish records that morsel m produced rows output rows, advancing the
// contiguous-prefix watermark and flipping stop once it covers n rows.
func (l *limiter) finish(m int, rows int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[m], l.done[m] = rows, true
	for l.next < len(l.done) && l.done[l.next] {
		l.acc += l.counts[l.next]
		l.next++
		if l.acc >= l.n {
			l.stop.Store(true)
			return
		}
	}
}

// isBareCount reports whether the plan is COUNT(*) over the unfiltered
// probe table.
func (p *plan) isBareCount() bool {
	return len(p.joins) == 0 && p.scanPred == nil && p.postPred == nil &&
		len(p.groupSlots) == 0 && len(p.outSlots) == 0 &&
		len(p.aggs) == 1 && p.aggs[0].kind == AggCount
}

// chain builds one worker's operator chain: a morsel source, then the
// scan filter, the joins and the post-join filter, each wrapped in a
// countOp. st.Operators is pre-sized by run to the pipeline shape, so
// the per-stage pointers stay valid for the whole execution. All the
// worker's counting wrappers come from one array.
func (p *plan) chain(next *atomic.Int64, nM, morselRows, bound int, st *ExecStats, lim *limiter) Op {
	oi := 0
	counts := make([]countOp, len(st.Operators))
	wrap := func(op Op) Op {
		c := &counts[oi]
		c.child, c.st = op, &st.Operators[oi]
		oi++
		return c
	}
	var op Op
	if p.useIdx {
		op = newIndexScanOp(p, next, nM, morselRows, st, lim)
	} else {
		op = newScanOp(p, next, nM, morselRows, bound, st, lim)
	}
	op = wrap(op)
	if p.scanPred != nil {
		op = wrap(&filterOp{child: op, pred: p.scanPred})
	}
	for _, j := range p.joins {
		op = wrap(&joinOp{child: op, j: j, cap: morselRows})
	}
	if p.postPred != nil {
		op = wrap(&filterOp{child: op, pred: p.postPred})
	}
	return op
}

// pipeline is one worker: its operator chain plus the state that
// outlives a batch. No goroutine owns it. run takes one batch through
// the chain and then hands the pipeline to a fresh goroutine and
// exits, so every morsel boundary returns the P to the scheduler. The
// continuation lands in the same P's runnext, and the exiting
// goroutine's schedule() first fires that P's expired timers, whose
// woken goroutines then run ahead of it: a writer due during a scan
// waits at most one morsel, not the 10 ms of forced preemption.
// Yielding in place would park the worker on the global run queue
// instead, which the scheduler checks before the network poller, so
// remote sessions would starve behind the scan.
//
// agg is nil for non-aggregating queries, in which case output rows
// land in perMorsel[morsel]; each morsel is claimed by exactly one
// worker, so slots of perMorsel are never written concurrently.
//
// Every morsel the source reads surfaces as a batch, empty or not (a
// morsel it prunes entirely is finished by the source), and filters
// and joins pass empty batches through. With a limiter the pipeline
// therefore sees each of its morsels and reports its output count: a
// morsel's batches are consecutive within its pipeline, whichever
// goroutine runs it, so a morsel-number change (or end of stream)
// marks the previous morsel finished.
type pipeline struct {
	op        Op
	agg       *aggregator
	perMorsel [][][]int64
	outSlots  []int
	lim       *limiter
	next      *atomic.Int64 // the shared dispatcher
	nM        int
	cur       int   // morsel whose rows cnt counts, -1 before the first
	cnt       int64 // output rows of morsel cur so far

	resume func() // run, bound once so that each handoff allocates nothing
	err    error
	wg     *sync.WaitGroup
}

func (w *pipeline) run() {
	b, err := w.op.Next()
	if err != nil {
		// Exhaust the dispatcher: every sibling stops at its next claim.
		w.next.Store(int64(w.nM))
		w.err = err
		w.wg.Done()
		return
	}
	if b == nil {
		if w.lim != nil && w.cur >= 0 {
			w.lim.finish(w.cur, w.cnt)
		}
		w.wg.Done()
		return
	}
	if w.lim != nil && b.Morsel != w.cur {
		if w.cur >= 0 {
			w.lim.finish(w.cur, w.cnt)
		}
		w.cur, w.cnt = b.Morsel, 0
	}
	w.cnt += int64(b.N)
	switch {
	case b.N == 0:
	case w.agg != nil:
		w.agg.add(b)
	default:
		cols := w.perMorsel[b.Morsel]
		if cols == nil {
			cols = make([][]int64, len(w.outSlots))
		}
		for i, slot := range w.outSlots {
			cols[i] = append(cols[i], b.Cols[slot][:b.N]...)
		}
		w.perMorsel[b.Morsel] = cols
	}
	go w.resume()
}

// buildJoin materializes a join's build side: scan the build table
// (block-pruned and filtered by its build-only conjuncts), hash the
// key column, and keep the referenced columns row-indexed.
func (p *plan) buildJoin(j *joinPlan) error {
	cols := append([]int(nil), j.buildCols...)
	keyPos := -1
	for i, c := range cols {
		if c == j.buildKeyCol {
			keyPos = i
			break
		}
	}
	if keyPos < 0 {
		keyPos = len(cols)
		cols = append(cols, j.buildKeyCol)
	}
	if err := j.build.Prepare(cols); err != nil {
		return err
	}
	bound := j.build.Rows()
	br := j.build.BlockRows()
	rowIDs := make([]int64, br)
	bufs := make([][]int64, len(cols))
	for i := range bufs {
		bufs[i] = make([]int64, br)
	}
	pos := map[int]int{} // schema slot -> buffer position
	for i, s := range j.slots {
		pos[s] = i
	}
	j.ht = map[int64][]int32{}
	j.rows = make([][]int64, len(j.slots))
	for blo := 0; blo < bound; blo += br {
		bhi := blo + br
		if bhi > bound {
			bhi = bound
		}
		if j.pred != nil && !p.noPrune {
			blk := blo / br
			if !j.pred.satisfiable(func(slot int) (int64, int64, bool) {
				i, ok := pos[slot]
				if !ok {
					return 0, 0, false
				}
				return j.build.Zone(j.buildCols[i], blk)
			}) {
				continue
			}
		}
		k, err := j.build.ReadBlock(blo, bhi, cols, rowIDs, bufs)
		if err != nil {
			return err
		}
		var ri int
		get := func(slot int) int64 { return bufs[pos[slot]][ri] }
		for ri = 0; ri < k; ri++ {
			if j.pred != nil && !j.pred.eval(get) {
				continue
			}
			key := bufs[keyPos][ri]
			j.ht[key] = append(j.ht[key], j.n)
			for i := range j.slots {
				j.rows[i] = append(j.rows[i], bufs[i][ri])
			}
			j.n++
		}
	}
	return nil
}

// outNames labels output columns: the plain column name, qualified by
// its table when another output column shares the name.
func (p *plan) outNames(slots []int) []string {
	count := map[string]int{}
	for _, s := range slots {
		count[p.slots[s].name]++
	}
	names := make([]string, len(slots))
	for i, s := range slots {
		r := p.slots[s]
		if count[r.name] > 1 && r.col >= 0 {
			names[i] = r.table.Name() + "." + r.name
		} else {
			names[i] = r.name
		}
	}
	return names
}

func (p *plan) decoderFor(slot int) func(int64) string {
	r := p.slots[slot]
	if !r.isStr {
		return nil
	}
	t, c := r.table, r.col
	return func(code int64) string { return t.Decode(c, code) }
}

// finalizeRows concatenates per-morsel output in morsel order.
func (p *plan) finalizeRows(res *Result, perMorsel [][][]int64) {
	res.cols = p.outNames(p.outSlots)
	res.isFloat = make([]bool, len(p.outSlots))
	res.strDec = make([]func(int64) string, len(p.outSlots))
	res.data = make([][]int64, len(p.outSlots))
	for i, slot := range p.outSlots {
		res.strDec[i] = p.decoderFor(slot)
	}
	for _, cols := range perMorsel {
		for i, c := range cols {
			res.data[i] = append(res.data[i], c...)
		}
	}
}

// finalizeAgg merges the per-worker aggregators and lays groups out
// sorted by key.
func (p *plan) finalizeAgg(res *Result, aggsW []*aggregator) {
	g := aggsW[0]
	for _, o := range aggsW[1:] {
		g.merge(o)
	}
	ng, na := len(p.groupSlots), len(p.aggs)
	res.cols = p.outNames(p.groupSlots)
	res.isFloat = make([]bool, ng+na)
	res.strDec = make([]func(int64) string, ng+na)
	res.data = make([][]int64, ng+na)
	for i, slot := range p.groupSlots {
		res.strDec[i] = p.decoderFor(slot)
	}
	for k, ba := range p.aggs {
		spec := AggSpec{Kind: ba.kind}
		if ba.slot >= 0 {
			spec.Col = p.slots[ba.slot].name
		}
		res.cols = append(res.cols, spec.label())
		res.isFloat[ng+k] = ba.kind == AggAvg
	}
	for _, ga := range g.groups() {
		for i, kv := range ga.keys {
			res.data[i] = append(res.data[i], kv)
		}
		for k := range p.aggs {
			res.data[ng+k] = append(res.data[ng+k], p.aggs[k].final(&ga.accs[k]))
		}
	}
}

// Result is a finished query: column-major data plus execution stats.
type Result struct {
	cols    []string
	isFloat []bool
	strDec  []func(int64) string
	data    [][]int64
	Stats   ExecStats
}

// Columns returns the output column names in order.
func (r *Result) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Result) Len() int {
	if len(r.data) == 0 {
		return 0
	}
	return len(r.data[0])
}

// Column returns the index of the named output column, or -1.
func (r *Result) Column(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// At returns the integer value at (row, col).
func (r *Result) At(row, col int) int64 { return r.data[col][row] }

// Float returns the value at (row, col) as a float64: the stored
// float for Avg columns, a conversion otherwise.
func (r *Result) Float(row, col int) float64 {
	v := r.data[col][row]
	if r.isFloat[col] {
		return math.Float64frombits(uint64(v))
	}
	return float64(v)
}

// IsFloat reports whether col holds float64 bit patterns (Avg).
func (r *Result) IsFloat(col int) bool { return r.isFloat[col] }

// StringAt decodes the dictionary code at (row, col); empty for
// non-VARCHAR columns.
func (r *Result) StringAt(row, col int) string {
	if dec := r.strDec[col]; dec != nil {
		return dec(r.data[col][row])
	}
	return ""
}

// Ints returns col's backing values (shared, not a copy).
func (r *Result) Ints(col int) []int64 { return r.data[col] }
