package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := newHist()
	vals := make([]float64, 200000)
	for i := range vals {
		// log-normal around 20 µs with a tail into milliseconds
		v := int64(math.Exp(r.NormFloat64()*1.5 + math.Log(20000)))
		vals[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(q*float64(len(vals))+0.5) - 1
		want, got := vals[rank], h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%g: histogram %.0f, sorted slice %.0f", q, got, want)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next)
		}
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d [%d,%d) does not index to itself", i, lo, lo+w)
		}
		if lo >= 256 && float64(w)/float64(lo) > 1.0/128 {
			t.Fatalf("bucket %d is wider than 1/128 of its lower bound", i)
		}
		next = lo + w
	}
	if next != 1<<histMaxBits {
		t.Fatalf("buckets end at %d, want %d", next, int64(1)<<histMaxBits)
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	a, b := newHist(), newHist()
	if a.quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	for i := int64(1); i <= 100; i++ {
		a.add(i)
		b.add(1000 + i)
	}
	a.merge(b)
	if a.n != 200 || a.quantile(0.25) != 50 || a.quantile(1) < 1099 {
		t.Fatalf("merge: n=%d q25=%v max=%v", a.n, a.quantile(0.25), a.quantile(1))
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its argument: %v", c.in)
			}
		}
	}
}

// A window reports the median of its slice rates and percentiles of
// the whole window: a stall confined to one slice leaves the rate and
// the p50 alone and shows in the p99 with the weight of its samples.
func TestWindowEstimators(t *testing.T) {
	w := window{start: time.Now(), slice: time.Second, n: 5}
	st := newLoadStats(5)
	for i := range st.counts {
		st.counts[i], st.busy[i] = 1000, 1e9
		for k := 0; k < 1000; k++ {
			st.hists[i].add(1000)
		}
	}
	// Slice 2 stalls: half the transactions, 100 of them 50 times slower.
	st.counts[2] = 500
	st.hists[2] = newHist()
	for k := 0; k < 500; k++ {
		st.hists[2].add(int64(1000 + 49000*(k/400)))
	}
	if got := st.rate(w); got != 1000 {
		t.Fatalf("rate = %v, want the median slice rate 1000", got)
	}
	if got := st.quantile(0.5); got < 1000 || got > 1010 {
		t.Fatalf("p50 = %v, want 1000 within a bucket", got)
	}
	// 100 of 4500 samples are slow, more than 1 %: the p99 is a slow one.
	if got := st.quantile(0.99); got < 49000 || got > 51000 {
		t.Fatalf("p99 = %v, want about 50000 (the stalled slice's tail)", got)
	}
	if qs := st.sliceQuantiles(0.99); len(qs) != 5 || qs[0] > 1010 || qs[2] < 49000 {
		t.Fatalf("per-slice p99 = %v", qs)
	}
}

func TestSliceRates(t *testing.T) {
	w := window{start: time.Now(), slice: 2 * time.Second, n: 3}
	idle := newLoadStats(3) // nothing timed: count / slice length
	idle.counts = []int64{1000, 1010, 990}
	if got := idle.sliceRates(w); got[0] != 500 || got[1] != 505 || got[2] != 495 {
		t.Fatalf("untimed rates %v", got)
	}
	// Open loop: 1001 completions, the first 1 ms into the slice, the
	// last 2 s after the first.
	open := newLoadStats(3)
	open.counts[0], open.first[0], open.busy[0] = 1001, 1e6, 2e9
	if got := open.sliceRates(w); got[0] != 500 {
		t.Fatalf("open-loop rate %v, want 500", got[0])
	}
	// Two closed-loop clients, each busy the whole 2-s slice: the
	// merged rate is the sum of theirs.
	a, b := newLoadStats(3), newLoadStats(3)
	for i := 0; i < 3; i++ {
		a.counts[i], a.busy[i] = 100, 2e9
		b.counts[i], b.busy[i] = 300, 2e9
	}
	a.merge(b)
	if got := a.sliceRates(w); got[0] != 200 {
		t.Fatalf("merged closed-loop rate %v, want 200", got[0])
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v", q1, q3)
	}
}
