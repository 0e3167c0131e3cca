package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Every workload, untraced and traced, at 1/16 of the rows and counts
// with half-second windows: each pass must succeed, pass its
// correctness checks and emit every metric of its list exactly once
// (emit panics on a second emission) with a finite value; every
// end-to-end metric must be positive on every workload, and every
// per-layer metric must be measured, not zero-filled, by at least one
// workload.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.5, trace: traced, short: true, outDir: out}
			r, l, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v first error: %v",
					w.name, traced, l.Correct, l.Attempted, l.Failed, r.checks, r.firstErr)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(l.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics on the result line, want %d", w.name, traced, len(l.Metrics), want)
			}
			for name, m := range l.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is not finite", w.name, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			for name := range r.values {
				measured[name] = true
			}
		}
	}
	for _, m := range perLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
	if _, err := os.Stat(out + "/trace-htap.json"); err != nil {
		t.Errorf("the traced pass left no trace file: %v", err)
	}
}

// BENCHMARK.json at the repository root is generated from the metric
// and workload tables (benchmark -contract); the committed copy must
// match them.
func TestContractFileMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	if string(got) != string(contractJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -contract > ../BENCHMARK.json`")
	}
	var c struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(got, &c); err != nil {
		t.Fatal(err)
	}
	setup := false
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
	}
	if !setup {
		t.Error("setup_s is missing from the end-to-end metrics")
	}
}
