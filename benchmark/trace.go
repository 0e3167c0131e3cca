package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the engine. Spans of
// one transaction share Txn; Parent is the ID of the enclosing span or
// -1. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Txn    uint64 `json:"txn"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one goroutine, in memory, for every
// every-th transaction (so a 150k txn/s client neither drowns in clock
// reads nor in spans). A nil tracer records nothing: untraced passes
// run the same code with tr == nil.
type tracer struct {
	epoch time.Time
	every int
	max   int
	seen  int
	on    bool
	txn   uint64
	lane  uint64 // high bits of Txn, distinguishes goroutines
	stack []int32
	spans []span
}

func newTracer(epoch time.Time, lane, every, max int) *tracer {
	return &tracer{epoch: epoch, every: every, max: max, lane: uint64(lane) << 48,
		spans: make([]span, 0, max), stack: make([]int32, 0, 8)}
}

// txnBegin opens the root span of a transaction if it is sampled.
func (t *tracer) txnBegin(name string) {
	if t == nil {
		return
	}
	t.seen++
	t.on = t.seen%t.every == 0 && len(t.spans)+16 < t.max
	if t.on {
		t.txn++
		t.begin(name)
	}
}

func (t *tracer) begin(name string) {
	if t == nil || !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Txn: t.lane | t.txn, ID: id, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:n]
	if n == 0 {
		t.on = false
	}
}

// mergeSpans concatenates per-goroutine span lists, renumbering IDs so
// they stay unique.
func mergeSpans(lists ...[]span) []span {
	var out []span
	for _, l := range lists {
		off := int32(len(out))
		for _, s := range l {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time: its
// duration minus the part of its interval covered by its children.
// Children that overlap one another are subtracted once. spans[i].ID
// must equal i.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start
		if ks := kids[s.ID]; len(ks) > 0 {
			sort.Slice(ks, func(i, j int) bool { return spans[ks[i]].Start < spans[ks[j]].Start })
			covered, hi := int64(0), s.Start
			for _, k := range ks {
				lo, end := spans[k].Start, spans[k].End
				if lo < hi {
					lo = hi
				}
				if end > s.End {
					end = s.End
				}
				if end > lo {
					covered += end - lo
					hi = end
				}
			}
			self -= covered
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
