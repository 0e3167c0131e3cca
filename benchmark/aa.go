package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// child runs one workload in a process of its own, as the contract's
// driver does, and returns its result line. With show set the child's
// table is passed through to standard output.
func child(cfg config, workload string, seed int64, show bool) (contractLine, error) {
	var l contractLine
	exe, err := os.Executable()
	if err != nil {
		return l, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardDeadline+10*time.Second)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--out", cfg.outDir}
	if cfg.short {
		args = append(args, "--short")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if show {
		for _, line := range lines[:max(len(lines)-1, 0)] {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		return l, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		return l, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return l, nil
}

// runAll runs every workload once and prints each table.
func runAll(cfg config) int {
	code := 0
	start := time.Now()
	for _, w := range workloads {
		l, err := child(cfg, w.name, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		} else if !l.Correct {
			code = 1
		}
	}
	fmt.Printf("pass wall time %.0fs\n", time.Since(start).Seconds())
	return code
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the contract's definition
// of spread); it needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// runAA runs two interleaved sets of n untraced passes of this binary,
// pass i of either set with seed+i, and compares per (workload,
// metric) the two medians. It fails when a gap exceeds half the
// metric's bound or, with the ten passes the contract's definition of
// spread takes, a spread exceeds the bound.
func runAA(cfg config, n int) int {
	cfg.trace = false
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	start := time.Now()
	for i := 0; i < n; i++ {
		for s := range sets {
			for _, w := range workloads {
				t0 := time.Now()
				l, err := child(cfg, w.name, cfg.seed+int64(i), false)
				if err != nil || !l.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: a/a pass failed: %s: %v (correct=%v)\n", w.name, err, l.Correct)
					return 1
				}
				for name, m := range l.Metrics {
					sets[s][key{w.name, name}] = append(sets[s][key{w.name, name}], m.Value)
				}
				fmt.Fprintf(os.Stderr, "a/a pass %d set %c %-14s %.0fs\n", i+1, 'A'+s, w.name, time.Since(t0).Seconds())
			}
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "a/a: 2 sets x %d passes, seeds %d..%d, window %gs, wall %.0fs\n", n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, time.Since(start).Seconds())
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %7s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][key{w.name, m.Name}], sets[1][key{w.name, m.Name}]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case gap > m.Bound/2:
				verdict, code = "GAP", 1
			case n < 10 || m.Name == "setup_s":
				// a spread of fewer runs is shown, not judged
			case math.Max(sa, sb) > m.Bound:
				verdict, code = "SPREAD", 1
			case math.Max(sa, sb) > m.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(out, "%-14s %-18s %14.4f %14.4f %6.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}
