package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1) // bucket 1 (< 2ns)
	h.Observe(3) // bucket 2 (< 4ns)
	h.Observe(time.Microsecond)
	h.Observe(5 * time.Second) // clamps into the +Inf bucket
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	var sum uint64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count {
		t.Fatalf("sum of buckets %d != count %d", sum, s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("low buckets = %v", s.Buckets[:3])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	if got := s.Sum(); got != time.Microsecond+5*time.Second+4 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestHistogramQuantileMerge(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 7: < 128ns
	}
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 128*time.Nanosecond {
		t.Fatalf("p50 = %v, want 128ns", q)
	}
	if q := s.Quantile(1); q < time.Millisecond {
		t.Fatalf("p100 = %v, want >= 1ms", q)
	}
	m := s.Merge(s)
	if m.Count != 2*s.Count || m.SumNanos != 2*s.SumNanos {
		t.Fatalf("merge: %+v", m)
	}
	if str := s.String(); !strings.Contains(str, "n=100") {
		t.Fatalf("String = %q", str)
	}
	if (Hist{}).Quantile(0.99) != 0 || (Hist{}).Mean() != 0 {
		t.Fatal("empty hist quantile/mean should be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var sum uint64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHistogramWriteProm(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	var b strings.Builder
	h.Snapshot().WriteProm(&b, "x_seconds", "", Seconds)
	out := b.String()
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "x_seconds_count 2") {
		t.Fatalf("missing count:\n%s", out)
	}
	// Cumulative counts must be monotone.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		var n int
		if _, err := fmtSscanfTail(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("non-monotone cumulative buckets:\n%s", out)
		}
		last = n
	}

	b.Reset()
	h.Snapshot().WriteProm(&b, "y_seconds", `strategy="fork"`, Seconds)
	if !strings.Contains(b.String(), `y_seconds_bucket{strategy="fork",le="+Inf"} 2`) {
		t.Fatalf("labeled render:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `y_seconds_count{strategy="fork"} 2`) {
		t.Fatalf("labeled count:\n%s", b.String())
	}
}

// TestHistogramCounts: a histogram fed counts (batch sizes) renders its
// bounds and sum as integers — bucket i holds counts up to 2^i - 1 —
// with the empty buckets above the largest observation elided.
func TestHistogramCounts(t *testing.T) {
	var h Histogram
	for _, n := range []int{1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 100, 100} {
		h.Observe(time.Duration(n))
	}
	s := h.Snapshot()
	if s.Count != 12 || s.SumNanos != 4+18+200 {
		t.Fatalf("Count %d, Sum %d", s.Count, s.SumNanos)
	}
	var b strings.Builder
	s.WriteProm(&b, "batch", "", Counts)
	want := `batch_bucket{le="0"} 0
batch_bucket{le="1"} 4
batch_bucket{le="3"} 10
batch_bucket{le="7"} 10
batch_bucket{le="15"} 10
batch_bucket{le="31"} 10
batch_bucket{le="63"} 10
batch_bucket{le="127"} 12
batch_bucket{le="+Inf"} 12
batch_sum 222
batch_count 12
`
	if b.String() != want {
		t.Fatalf("rendered\n%s\nwant\n%s", b.String(), want)
	}
	if got := (Hist{}).String(); got != "n=0" {
		t.Fatalf("empty String() = %q", got)
	}
	if got := s.String(); !strings.HasPrefix(got, "n=12 ") {
		t.Fatalf("String() = %q", got)
	}
}

// fmtSscanfTail parses the trailing integer of a metrics line.
func fmtSscanfTail(line string, n *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*n, err = atoi(line[i+1:])
	return 1, err
}

func atoi(s string) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, &strconvError{s}
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, nil
}

type strconvError struct{ s string }

func (e *strconvError) Error() string { return "bad int " + e.s }

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Record(EvTxnBegin, 1, 0, 7)
	r.RecordNote(EvIndexDDL, 1, 0, 0, "users.uid hash")
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != EvTxnBegin || evs[0].A != 1 || evs[0].C != 7 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Note != "users.uid hash" {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("events out of order: %d then %d", evs[0].Seq, evs[1].Seq)
	}
	var b strings.Builder
	r.WriteTrace(&b)
	if !strings.Contains(b.String(), "txn.begin") || !strings.Contains(b.String(), "users.uid hash") {
		t.Fatalf("trace:\n%s", b.String())
	}
}

func TestRecorderWraps(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 1000; i++ {
		r.Record(EvTxnCommit, int64(i), 0, 0)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("got %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous ring: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].A != 999 {
		t.Fatalf("newest event A = %d", evs[len(evs)-1].A)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Record(EvTxnCommit, int64(w), int64(i), 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, ev := range r.Events() {
				if ev.Kind != EvTxnCommit {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Seq() != 40000 {
		t.Fatalf("Seq = %d, want 40000", r.Seq())
	}
}

func TestPromEscape(t *testing.T) {
	if got := PromEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("PromEscape = %q", got)
	}
}
