package main

import (
	"sync"
	"time"
)

// window is the recorded part of a load phase: n slices of equal
// length starting at start. Traffic before start is warm-up.
type window struct {
	start time.Time
	slice time.Duration
	n     int
}

// index returns the slice t falls in: -1 during warm-up, >= n once
// the window is over.
func (w window) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	return int(d / w.slice)
}

func (w window) sliceSeconds() float64 { return w.slice.Seconds() }

// loadStats is what one load goroutine (or, merged, one class of
// them) recorded: per slice a completion count and a latency
// histogram, all preallocated.
type loadStats struct {
	counts    []int64
	hists     []*hist
	busy      []int64 // closed loop: the latencies of a slice, summed; open loop: first to last completion
	first     []int64 // open loop only: a slice's first completion, ns after the window's start
	clients   int     // load goroutines merged into this
	late      *hist   // open loop only: how long after its due time each request was sent
	attempted int64   // warm-up included
	failed    int64
	err       error // first failure
}

func newLoadStats(slices int) *loadStats {
	s := &loadStats{counts: make([]int64, slices), hists: make([]*hist, slices), busy: make([]int64, slices),
		first: make([]int64, slices), clients: 1, late: newHist()}
	for i := range s.hists {
		s.hists[i] = newHist()
	}
	return s
}

func (s *loadStats) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
}

// merge adds o's slices into s (clients of one class).
func (s *loadStats) merge(o *loadStats) {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
		s.busy[i] += o.busy[i]
		s.hists[i].merge(o.hists[i])
	}
	s.clients += o.clients
	s.late.merge(o.late)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.err == nil {
		s.err = o.err
	}
}

func (s *loadStats) samples() int64 {
	var n int64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// sliceRates returns completions per second of every slice. A closed
// loop's transactions run back to back, so the time its clients spent
// on a slice's completions is the sum of their latencies; dividing by
// that rather than by the slice length keeps a slow client's rate from
// jumping by a whole transaction per slice. An open loop's rate is
// measured between the slice's first and last completion.
func (s *loadStats) sliceRates(w window) []float64 {
	out := make([]float64, len(s.counts))
	for i, c := range s.counts {
		switch {
		case s.busy[i] <= 0:
			out[i] = float64(c) / w.sliceSeconds()
		case s.first[i] > 0:
			out[i] = float64(c-1) / (float64(s.busy[i]) / 1e9)
		default:
			out[i] = float64(c) * float64(s.clients) / (float64(s.busy[i]) / 1e9)
		}
	}
	return out
}

// rate is the median of the slice rates: the number a window reports.
func (s *loadStats) rate(w window) float64 { return median(s.sliceRates(w)) }

// quantile returns the q-quantile, in nanoseconds, of every latency the
// window recorded (the slices' histograms merged), so a stall counts
// with the weight of the transactions it delayed.
func (s *loadStats) quantile(q float64) float64 {
	all := newHist()
	for _, h := range s.hists {
		all.merge(h)
	}
	return all.quantile(q)
}

// sliceQuantiles returns the q-quantile, in nanoseconds, of every
// slice that recorded anything; the results file keeps them so that a
// disturbed slice can be recognised afterwards.
func (s *loadStats) sliceQuantiles(q float64) []float64 {
	var out []float64
	for _, h := range s.hists {
		if h.n > 0 {
			out = append(out, h.quantile(q))
		}
	}
	return out
}

// loadClient is one load goroutine: a closed loop calling step back to
// back, or, with rate > 0, an open loop calling it rate times a second
// on a fixed schedule.
type loadClient struct {
	rate float64
	step func() error
}

// maxLoadGoroutines is the load-shape rule: a run never has more.
const maxLoadGoroutines = 2

// warmFor is the unrecorded traffic before a window of the given
// length: a fifth of it, 3 s at the 15-s contract window.
func warmFor(length time.Duration) time.Duration { return min(length/5, 3*time.Second) }

// windowBudget is the time budget of a phase that runs one window.
func windowBudget(length time.Duration) time.Duration {
	return length + warmFor(length) + 2*time.Second
}

// runWindow drives the clients through the warm-up and then a
// recorded window of the given length, and returns one loadStats per
// client.
func runWindow(length time.Duration, slices int, clients ...loadClient) (window, []*loadStats) {
	if len(clients) > maxLoadGoroutines {
		panic("runWindow: more than two load goroutines")
	}
	begin := time.Now()
	w := window{start: begin.Add(warmFor(length)), slice: length / time.Duration(slices), n: slices}
	stats := make([]*loadStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		stats[i] = newLoadStats(slices)
		wg.Add(1)
		go func(c loadClient, st *loadStats) {
			defer wg.Done()
			if c.rate > 0 {
				openLoop(w, begin, c.rate, st, c.step)
			} else {
				closedLoop(w, st, c.step)
			}
		}(c, stats[i])
	}
	wg.Wait()
	return w, stats
}

// closedLoop times each step from the end of the previous one; a step
// counts for the slice it completes in.
func closedLoop(w window, st *loadStats, step func() error) {
	last := time.Now()
	for {
		err := step()
		now := time.Now()
		st.attempted++
		if err != nil {
			st.fail(err)
		}
		i := w.index(now)
		if i >= w.n {
			return
		}
		if err == nil && i >= 0 {
			lat := int64(now.Sub(last))
			st.counts[i]++
			st.busy[i] += lat
			st.hists[i].add(lat)
		}
		last = now
	}
}

// openLoop sends request k at begin + k/rate whatever the system does
// and times it from that due time, so a stall is charged to every
// request it delays.
func openLoop(w window, begin time.Time, rate float64, st *loadStats, step func() error) {
	gap := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * gap)
		if w.index(due) >= w.n {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := step()
		now := time.Now()
		st.attempted++
		i := w.index(due)
		if err != nil {
			st.fail(err)
		} else if i >= 0 {
			done := int64(now.Sub(w.start))
			if st.counts[i] == 0 {
				st.first[i] = done
			}
			st.counts[i]++
			st.busy[i] = done - st.first[i]
			st.hists[i].add(int64(now.Sub(due)))
			st.late.add(int64(sent.Sub(due)))
		}
	}
}
