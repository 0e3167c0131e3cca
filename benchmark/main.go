// Command benchmark is the repository's HTAP benchmark: four
// stationary workloads, six end-to-end metrics measured with tracing
// off, and per-layer numbers from a separate traced pass. See
// README.md in this directory.
//
//	benchmark --workload htap --seed 1 --seconds 15 --trace 0   one run; last line is the result
//	benchmark                                                   every workload, untraced
//	benchmark -trace 1                                          every workload, traced
//	benchmark -aa 3                                             two interleaved sets of 3 untraced passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"htap", "the paper's claim: does OLTP keep its speed and tail while OLAP scans fresh virtual snapshots of the same in-memory table", runHTAP},
	{"oltp-durable", "what the WAL costs two writers and how long a restart takes; snapshots and the query engine are nearly idle", runDurable},
	{"olap-query", "parallel morsels, zone-map pruning, index routing and a join over a table that barely changes; the commit path is nearly idle", runOLAPQuery},
	{"serve-replica", "the networked tier in steady state: remote sessions on a primary and its read replica, aged past the publisher's history", runServeReplica},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hardDeadline ends a run that hangs: the contract allows 180 s.
const hardDeadline = 170 * time.Second

func main() {
	var cfg config
	var trace, aa int
	var contract bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print the result line; empty runs all four")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generator derives from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the recorded window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass that produces the per-layer metrics")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of this many untraced passes and compare their medians")
	flag.BoolVar(&cfg.short, "short", false, "smoke run: 1/16 of the rows and counts, no pre-heat")
	flag.StringVar(&cfg.outDir, "out", "", "directory for results, traces and scratch databases (default benchmark/out)")
	flag.BoolVar(&contract, "contract", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if contract {
		os.Stdout.Write(contractJSON())
		return
	}
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 || aa < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.outDir == "" {
		cfg.outDir = "out"
		if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
			cfg.outDir = filepath.Join("benchmark", "out") // started from the repository root
		}
	}
	switch {
	case aa > 0:
		os.Exit(runAA(cfg, aa))
	case cfg.workload == "":
		os.Exit(runAll(cfg))
	default:
		os.Exit(runOne(cfg))
	}
}

// execute runs one workload in this process and leaves its results
// file (and, traced, its trace file) in the output directory.
func execute(cfg config) (*run, contractLine, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, contractLine{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	start := time.Now()
	r, err := newRun(cfg)
	if err != nil {
		return nil, contractLine{}, err
	}
	defer r.cleanup()
	r.preheat()
	if err := w.run(r); err != nil {
		return r, contractLine{}, err
	}
	if cfg.trace {
		r.emitRuntime()
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := writeTrace(path, cfg.workload, mergeSpans(r.spans...)); err != nil {
			return r, contractLine{}, err
		}
	}
	r.phases = append(r.phases, phaseRec{"total", time.Since(start).Seconds(), 2*cfg.seconds + 15})
	l, err := r.line()
	if err != nil {
		return r, l, err
	}
	return r, l, r.writeResults(l)
}

// runOne runs one workload and prints its table and, as the last
// line, the contract's result object.
func runOne(cfg config) int {
	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", cfg.workload, hardDeadline)
		os.Exit(3)
	})
	r, l, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	r.printTable(l)
	if over := r.overruns(); len(over) > 0 {
		for _, o := range over {
			fmt.Fprintln(os.Stderr, "benchmark: time budget overrun:", o)
		}
		return 1
	}
	b, _ := json.Marshal(l)
	fmt.Println(string(b))
	if !l.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric of the run by name with its unit,
// bound and sample count, the phase times and the correctness checks.
func (r *run) printTable(l contractLine) {
	env := r.env
	fmt.Printf("== %s  seed=%d window=%gs traced=%v  nproc=%d GOMAXPROCS=%d %s cost=%s flush=%s commit=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace,
		env.NProc, env.GoMaxProcs, env.GoVersion, env.CostModel, env.Flush, env.Commit)
	row := func(name, unit, bound string, v float64) {
		fmt.Printf("  %-34s %14.4f %-10s %-6s samples=%d\n", name, v, unit, bound, r.samples[name])
	}
	if r.cfg.trace {
		for _, m := range perLayer {
			if _, measured := r.values[m.Name]; measured {
				row(m.Name, m.Unit, "", l.Metrics[m.Name].Value)
			}
		}
	} else {
		for _, m := range endToEnd {
			row(m.Name, m.Unit, fmt.Sprintf("±%.0f%%", 100*m.Bound), l.Metrics[m.Name].Value)
		}
		extra := make([]string, 0, len(r.extra))
		for name := range r.extra {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		for _, name := range extra {
			row(name, "", "", r.extra[name])
		}
	}
	for k, v := range r.late {
		fmt.Printf("  open-loop lateness %s %.1f us\n", k, v)
	}
	fmt.Printf("  ops_attempted=%d ops_failed=%d host.probe_mops=%.0f\n", r.attempted, r.failed, r.probes)
	if r.firstErr != nil {
		fmt.Printf("  first error: %v\n", r.firstErr)
	}
	for _, p := range r.phases {
		fmt.Printf("  phase %-18s %7.2fs (budget %.0fs)\n", p.Name, p.Seconds, p.Budget)
	}
	for _, c := range r.checks {
		verdict := "pass"
		if !c.Pass {
			verdict = "FAIL " + c.Detail
		}
		fmt.Printf("  check %-60s %s\n", c.Name, verdict)
	}
	fmt.Printf("  correct=%v\n", l.Correct)
}
