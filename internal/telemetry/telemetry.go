// Package telemetry is ankerdb's observability substrate: lock-cheap
// atomic latency histograms for the engine's hot phases and an
// always-on ring-buffer flight recorder of structured trace events.
//
// Both primitives are built for instrumentation ON the hot path:
//
//   - Histogram.Observe is three atomic adds (count, sum, one log2
//     bucket) with no locks and no allocation, so a phase can be timed
//     on every commit without bending the throughput curve.
//   - Recorder.Record claims a slot with one atomic increment and
//     publishes through a per-slot sequence lock, so concurrent
//     recorders never block each other and a reader (TraceDump) can
//     snapshot the ring without stopping writers.
//
// The exporters (Prometheus text rendering) live here too so the
// bucket-boundary convention has exactly one owner.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log2 latency buckets. Bucket i counts
// observations with duration < 2^i nanoseconds (bucket 0 holds only
// zero-duration observations); the last bucket absorbs everything at
// or above 2^(NumBuckets-2) ns (~1.1 s) as +Inf.
const NumBuckets = 32

// Histogram is a lock-free log2-bucketed latency histogram; fed
// time.Duration(n) it buckets counts the same way (see Unit). The zero
// value is ready to use; it must not be copied after first use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a duration to its bucket index: bits.Len64 of the
// nanosecond count, so bucket i collects n with 2^(i-1) <= n < 2^i.
func bucketOf(d time.Duration) int {
	n := d.Nanoseconds()
	if n <= 0 {
		return 0
	}
	b := bits.Len64(uint64(n))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Observe records one duration. Safe for concurrent use; costs three
// uncontended atomic adds.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(d.Nanoseconds()))
	h.buckets[bucketOf(d)].Add(1)
}

// Snapshot returns a consistent-enough copy for reporting: each field
// is loaded atomically, so counts never tear, though a snapshot racing
// Observe may catch the count before the bucket (callers that need the
// count == sum-of-buckets invariant sample at quiescence).
func (h *Histogram) Snapshot() Hist {
	var s Hist
	// Buckets before count: an Observe between the two loads then
	// leaves Count >= sum(Buckets), never the reverse, so cumulative
	// bucket rendering stays monotone.
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNanos = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Hist is an immutable histogram snapshot: plain values, mergeable,
// JSON-serializable. Buckets[i] counts observations with duration
// < BucketBound(i).
type Hist struct {
	Count    uint64
	SumNanos uint64
	Buckets  [NumBuckets]uint64
}

// BucketBound returns bucket i's exclusive upper bound. The last
// bucket is unbounded and reports the largest representable duration.
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i))
}

// Merge returns the element-wise sum of h and o.
func (h Hist) Merge(o Hist) Hist {
	h.Count += o.Count
	h.SumNanos += o.SumNanos
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	return h
}

// Sum returns the cumulative observed duration.
func (h Hist) Sum() time.Duration { return time.Duration(h.SumNanos) }

// Mean returns the average observed duration, zero when empty.
func (h Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1):
// the bound of the first bucket whose cumulative count reaches
// q*Count. Zero when the histogram is empty.
func (h Hist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// String renders a compact one-line summary:
// "n=1234 mean=1.2µs p50≤2µs p99≤16µs max≤32µs".
func (h Hist) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	maxB := 0
	for i, b := range h.Buckets {
		if b > 0 {
			maxB = i
		}
	}
	return fmt.Sprintf("n=%d mean=%v p50≤%v p99≤%v max≤%v",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), BucketBound(maxB))
}

// Unit is what a histogram's observations measure, which decides how
// WriteProm renders its bounds and sum.
type Unit uint8

const (
	// Seconds: observations are durations; bounds and sum render in
	// seconds.
	Seconds Unit = iota
	// Counts: observations are counts fed as Observe(time.Duration(n))
	// (batch sizes, commits of lag); bounds and sum render as integers.
	Counts
)

// render formats n, a bucket bound or sum in observation units.
func (u Unit) render(n uint64) string {
	if u == Counts {
		return fmt.Sprint(n)
	}
	return fmt.Sprint(float64(n) / 1e9)
}

// WriteProm renders the snapshot as one Prometheus histogram metric
// family (name_bucket{...le}, name_sum, name_count), with le bounds and
// the sum in unit. labels ("" or `strategy="vmsnap"`) are applied to
// every series. Buckets above the highest non-empty one are elided —
// the +Inf bucket always closes the series.
func (h Hist) WriteProm(w io.Writer, name, labels string, unit Unit) {
	sep, sumLabels := "", ""
	if labels != "" {
		sep, sumLabels = ",", "{"+labels+"}"
	}
	var cum uint64
	top := 0
	for i, b := range h.Buckets {
		if b > 0 {
			top = i
		}
	}
	for i := 0; i <= top && i < NumBuckets-1; i++ {
		cum += h.Buckets[i]
		// Bucket i holds integral observations < 2^i, i.e. <= 2^i - 1;
		// that is the exact inclusive Prometheus bound.
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, unit.render(uint64(1)<<uint(i)-1), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sumLabels, unit.render(h.SumNanos))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sumLabels, h.Count)
}

// EventKind tags a flight-recorder event.
type EventKind uint32

// Event kinds. A/B/C are kind-specific payload words (ids, counts,
// nanoseconds); see the String method for their rendering.
const (
	EvNone           EventKind = iota
	EvTxnBegin                 // A=txn id, B=0 OLTP / 1 OLAP, C=read timestamp (emitted for OLAP snapshot pins; OLTP begins ride on the commit/abort event's C)
	EvTxnCommit                // A=txn id, B=1 if empty (read-only) commit, C=begin/read timestamp
	EvTxnAbort                 // A=txn id, B=abort reason (AbortExplicit...), C=begin/read timestamp
	EvSnapCreate               // A=table, B=col (-1 visibility), C=creation nanos
	EvSnapRelease              // A=column snapshots released
	EvCheckpoint               // A=checkpoint timestamp, C=duration nanos
	EvWALSeal                  // A=shard, B=records sealed, C=newest commit TS
	EvIndexDDL                 // A=1 create / 0 drop, Note="table.col kind"
	EvQueryStart               // A=query id
	EvQueryFinish              // A=query id, B=rows emitted, C=duration nanos
	EvSlowQuery                // A=query id, C=duration nanos, Note=table
	EvVacuum                   // A=version nodes removed, C=duration nanos
	EvRecovery                 // A=txns replayed, B=loads replayed, C=nanos
	EvTableDDL                 // A=1 drop / 2 truncate, C=DDL timestamp, Note=table
	EvReplBootstrap            // A=snapshot TS, B=oracle seed (replica side)
	EvReplDisconnect           // C=applied watermark at disconnect, Note=error
	EvReplPromote              // A=oracle seed, B=required TS
)

// Abort reasons carried in EvTxnAbort's B payload.
const (
	AbortExplicit = iota // Txn.Abort called
	AbortConflict        // precision-locking validation failed
	AbortError           // commit failed for another reason (e.g. WAL)
)

func (k EventKind) String() string {
	switch k {
	case EvTxnBegin:
		return "txn.begin"
	case EvTxnCommit:
		return "txn.commit"
	case EvTxnAbort:
		return "txn.abort"
	case EvSnapCreate:
		return "snap.create"
	case EvSnapRelease:
		return "snap.release"
	case EvCheckpoint:
		return "checkpoint"
	case EvWALSeal:
		return "wal.seal"
	case EvIndexDDL:
		return "index.ddl"
	case EvQueryStart:
		return "query.start"
	case EvQueryFinish:
		return "query.finish"
	case EvSlowQuery:
		return "query.slow"
	case EvVacuum:
		return "vacuum"
	case EvRecovery:
		return "recovery"
	case EvTableDDL:
		return "table.ddl"
	case EvReplBootstrap:
		return "repl.bootstrap"
	case EvReplDisconnect:
		return "repl.disconnect"
	case EvReplPromote:
		return "repl.promote"
	}
	return "none"
}

// Event is one flight-recorder entry.
type Event struct {
	Seq  uint64        // global sequence number, 1-based
	At   time.Duration // monotonic offset from the recorder's start
	Kind EventKind
	A    int64
	B    int64
	C    int64
	Note string // optional; only rare event kinds carry one
}

// slot is one ring entry, published through a sequence lock: ver is
// odd while a writer owns the slot and 2*seq once event seq is fully
// written, so a reader can detect both torn reads and overwrites —
// and recover the event's sequence number as ver/2 without a separate
// field (one fewer store on the record path).
//
// The slot is deliberately pointer-free: string notes live in the
// recorder's small side table instead, so the ring's backing array is
// allocated noscan and an always-on recorder adds no mark work to any
// garbage-collection cycle. (A pointer per slot makes the GC scan the
// whole ring every cycle — measurably so on small-heap workloads,
// where the collector runs thousands of times per second.)
type slot struct {
	ver   atomic.Uint64
	nanos atomic.Int64
	kind  atomic.Uint32
	a     atomic.Int64
	b     atomic.Int64
	c     atomic.Int64
}

// noteSlots sizes the side table holding string payloads, keyed by
// event sequence number. Notes are rare (DDL, slow queries), so a
// small table outlives the ring slots they annotate in practice.
const noteSlots = 64

// noteSlot pairs a note with the sequence number it belongs to, so a
// reader can reject entries recycled by a later noted event.
type noteSlot struct {
	seq  atomic.Uint64
	note atomic.Pointer[string]
}

// Recorder is a fixed-size lock-free flight recorder: the newest
// ringSize events survive, older ones are overwritten. Safe for
// concurrent use from any number of writers and readers.
type Recorder struct {
	start time.Time
	seq   atomic.Uint64
	mask  uint64
	slots []slot
	notes [noteSlots]noteSlot
}

// NewRecorder returns a recorder holding the newest size events; size
// is rounded up to a power of two (minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Recorder{start: time.Now(), mask: uint64(n - 1), slots: make([]slot, n)}
}

// Record appends one event. The claim is a single atomic increment;
// publication CASes the slot's sequence lock, so a writer lapped a
// full ring-length mid-write is skipped rather than torn.
func (r *Recorder) Record(kind EventKind, a, b, c int64) {
	r.record(kind, a, b, c, int64(time.Since(r.start)), nil)
}

// RecordNote appends one event carrying a string payload. Allocates;
// reserve it for rare events (DDL, slow queries).
func (r *Recorder) RecordNote(kind EventKind, a, b, c int64, note string) {
	r.record(kind, a, b, c, int64(time.Since(r.start)), &note)
}

// Now returns the recorder-relative monotonic offset — the timestamp
// space RecordAt stamps events in. One monotonic clock read, cheaper
// than time.Now (no wall-clock word).
func (r *Recorder) Now() time.Duration { return time.Since(r.start) }

// RecordAt appends one event stamped with a mark previously obtained
// from Now, so a call site that already read the clock for its own
// phase accounting records the event without another read.
func (r *Recorder) RecordAt(kind EventKind, a, b, c int64, at time.Duration) {
	r.record(kind, a, b, c, int64(at), nil)
}

func (r *Recorder) record(kind EventKind, a, b, c, nanos int64, note *string) {
	seq := r.seq.Add(1)
	s := &r.slots[seq&r.mask]
	// Sequence lock: move ver from its resting even value to odd. A
	// failed CAS means another writer owns the slot — it was lapped by
	// a full ring of events mid-write — so this event is dropped; a
	// recorder that far behind has lost the slot's history anyway.
	old := s.ver.Load()
	if old&1 != 0 || !s.ver.CompareAndSwap(old, old+1) {
		return
	}
	s.nanos.Store(nanos)
	s.kind.Store(uint32(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	// Notes park in the side table (keyed by seq) rather than the slot,
	// keeping the ring noscan; the common pointer-free path doesn't
	// touch the table at all.
	if note != nil {
		ns := &r.notes[seq&(noteSlots-1)]
		ns.seq.Store(0) // invalidate while the pair is inconsistent
		ns.note.Store(note)
		ns.seq.Store(seq)
	}
	s.ver.Store(2 * seq)
}

// Events returns the recorded events in sequence order, oldest first.
// Slots being concurrently rewritten are skipped.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		v1 := s.ver.Load()
		if v1 == 0 || v1&1 != 0 {
			continue
		}
		ev := Event{
			Seq:  v1 / 2,
			At:   time.Duration(s.nanos.Load()),
			Kind: EventKind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
			C:    s.c.Load(),
		}
		if ns := &r.notes[ev.Seq&(noteSlots-1)]; ns.seq.Load() == ev.Seq {
			if n := ns.note.Load(); n != nil && ns.seq.Load() == ev.Seq {
				ev.Note = *n
			}
		}
		if s.ver.Load() != v1 {
			continue // torn by a concurrent writer
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Seq returns the number of events recorded (including overwritten and
// dropped ones).
func (r *Recorder) Seq() uint64 { return r.seq.Load() }

// WriteTrace renders the ring's surviving events as text, one per
// line, oldest first.
func (r *Recorder) WriteTrace(w io.Writer) {
	for _, ev := range r.Events() {
		fmt.Fprintf(w, "%12s  #%-8d %-12s a=%d b=%d c=%d",
			ev.At.Round(time.Microsecond), ev.Seq, ev.Kind, ev.A, ev.B, ev.C)
		if ev.Note != "" {
			fmt.Fprintf(w, " %s", ev.Note)
		}
		fmt.Fprintln(w)
	}
}

// PromEscape escapes a string for use as a Prometheus label value.
func PromEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}
