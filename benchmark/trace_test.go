package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "txn", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a on [30,40)
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "leaf", ID: 4, Parent: 1, Start: 15, End: 20},
		{Name: "txn", ID: 5, Parent: -1, Start: 200, End: 230},
	}
	self := selfTimes(spans)
	// children cover [10,60) and [90,100): 60 of the parent's 100.
	if got := self["txn"]; len(got) != 2 || got[0] != 40 || got[1] != 30 {
		t.Fatalf("txn self times %v, want [40 30]", got)
	}
	if got := self["a"]; len(got) != 1 || got[0] != 25 {
		t.Fatalf("a self time %v, want [25]", got)
	}
	if got := self["b"]; got[0] != 30 {
		t.Fatalf("b self time %v, want [30]", got)
	}
}

func TestTracerSamplesAndNests(t *testing.T) {
	var none *tracer // an untraced pass
	none.txnBegin("txn")
	none.begin("x")
	none.end()
	none.end()

	tr := newTracer(time.Now(), 3, 2, 1000)
	for i := 0; i < 10; i++ {
		tr.txnBegin("txn")
		tr.begin("txn.get")
		tr.end()
		tr.begin("txn.commit")
		tr.end()
		tr.end()
	}
	if len(tr.spans) != 15 {
		t.Fatalf("recorded %d spans, want 5 sampled transactions of 3", len(tr.spans))
	}
	for i, s := range tr.spans {
		if int(s.ID) != i || s.End < s.Start || s.Txn>>48 != 3 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		root := tr.spans[i-i%3]
		if i%3 == 0 && s.Parent != -1 || i%3 != 0 && (s.Parent != root.ID || s.Txn != root.Txn) {
			t.Fatalf("span %d has the wrong parent or transaction: %+v", i, s)
		}
	}
	merged := mergeSpans(tr.spans, tr.spans)
	if len(merged) != 30 || merged[16].ID != 16 || merged[16].Parent != 15 {
		t.Fatalf("merge did not renumber: %+v", merged[16])
	}
	full := newTracer(time.Now(), 0, 1, 20)
	for i := 0; i < 10; i++ {
		full.txnBegin("txn")
		full.end()
	}
	if len(full.spans) >= 20 {
		t.Fatalf("tracer grew past its cap: %d spans", len(full.spans))
	}
}
