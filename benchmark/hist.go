package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: values
// below 2^histSubBits are counted exactly, larger ones in
// 2^(histSubBits-1) equal-width buckets per power of two, so a bucket
// is never wider than 1/128 of its lower bound (quantile error well
// under 1 %). All buckets are allocated up front; add never allocates.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	histSubBits = 8                      // values < 256 ns are exact
	histMaxBits = 42                     // clamp at ~73 minutes
	histHalf    = 1 << (histSubBits - 1) // buckets per power of two
	histBuckets = (histMaxBits-histSubBits+1)*histHalf + histHalf
)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits
	return shift*histHalf + int(v>>uint(shift))
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width int64) {
	if i < 1<<histSubBits {
		return int64(i), 1
	}
	shift := i/histHalf - 1
	return int64(i-shift*histHalf) << uint(shift), 1 << uint(shift)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the midpoint of the bucket holding the q-quantile
// (nearest-rank), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			lo, w := histBounds(i)
			return float64(lo) + float64(w-1)/2
		}
	}
	return 0
}

// median returns the median of vals (mean of the middle pair for an
// even count); 0 for none. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
