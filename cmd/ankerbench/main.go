// Command ankerbench drives the public ankerdb facade end-to-end to
// reproduce the paper's experiments:
//
//   - "create": snapshot creation latency per strategy as the number of
//     touched columns grows (Table 1 / Figure 5a). Fine-granular
//     strategies pay per column; fork pays for the whole process image
//     on every touched column.
//   - "write": write-after-snapshot cost (Figure 5b): kernel COW
//     (fork/vmsnap) versus manual user-space COW (rewiring) versus
//     nothing to do (physical).
//   - "mixed": concurrent OLTP writers against OLAP scanners, the
//     workload of Section 5, reporting throughput, aborts, snapshot
//     staleness and COW traffic.
//   - "commit": the Figure 11 scaling experiment: OLTP commit
//     throughput as the writer count grows, swept across commit shard
//     counts. shards=1 is the paper's serialized commit phase; higher
//     shard counts engage the sharded group-commit pipeline.
//
// "create" and "write" print Go wall time next to simulated kernel
// time: the counted kernel events (syscalls, VMA operations, faults,
// signals) priced by the default cost model (Stats.SimKernelTime).
// Wall time contains no simulated cost; the strategy ordering of
// Table 1 shows in the simulated column and the counts behind it.
//
// All benchmarks go exclusively through the public API, so the numbers
// include the full commit pipeline and snapshot lifecycle. Everything
// else a user of the system sees — the HTAP claim end to end, the WAL,
// the query engine and indexes, the network tier — is measured by the
// repo's benchmark (benchmark/, run by benchmark/run.sh), not here.
//
// Output formats (-format): "text" prints human-readable tables;
// "csv" and "json" emit one flat record per measured metric
// (bench, strategy, shards, writers, scanners, touch, metric, value),
// the machine-readable form of the paper-figure tables. Every run also
// emits "env" records (gomaxprocs, numcpu): on a 1-CPU runner the shard
// sweep cannot show wall-clock speedup, and artifacts must say so.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb"
	"ankerdb/internal/workload"
)

var (
	flagBench      = flag.String("bench", "create,write,mixed,commit", "comma-separated benchmarks to run: create, write, mixed, commit")
	flagStrategies = flag.String("strategies", "physical,fork,rewired,vmsnap", "comma-separated snapshot strategies")
	flagRows       = flag.Int("rows", 1<<16, "rows per column")
	flagCols       = flag.Int("cols", 8, "columns per table")
	flagWrites     = flag.Int("writes", 4096, "rows written after the snapshot (write benchmark)")
	flagWriters    = flag.Int("writers", 8, "concurrent OLTP writers (mixed benchmark; upper bound of the commit sweep)")
	flagScanners   = flag.Int("scanners", 2, "concurrent OLAP scanners (mixed benchmark)")
	flagMix        = flag.String("mix", "uniform,ycsb-a,ycsb-b,tpcc", "comma-separated mixed-benchmark writer profiles: uniform, ycsb-a, ycsb-b, tpcc")
	flagRefresh    = flag.Int("refresh", 16, "snapshot refresh interval in commits (mixed benchmark)")
	flagShards     = flag.String("shards", "1,0", "comma-separated commit shard counts for the commit sweep (0 = GOMAXPROCS)")
	flagDur        = flag.Duration("dur", 2*time.Second, "duration per configuration (mixed and commit benchmarks)")
	flagFormat     = flag.String("format", "text", "output format: text, csv, json")
	flagQuick      = flag.Bool("quick", false, "smoke preset: small columns, short durations")
)

// record is one measured metric in the flat schema shared by the CSV
// and JSON outputs. Shards, Writers, Scanners and Touch are -1 when the
// dimension does not apply to the benchmark.
type record struct {
	Bench    string  `json:"bench"`
	Mix      string  `json:"mix,omitempty"`
	Strategy string  `json:"strategy"`
	Shards   int     `json:"shards"`
	Writers  int     `json:"writers"`
	Scanners int     `json:"scanners"`
	Touch    int     `json:"touch"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
}

var records []record

func emit(r record) { records = append(records, r) }

// metric is one (name, value) measurement. Benchmarks emit fixed-order
// metric slices — never maps — so the CSV/JSON artifacts are
// byte-reproducible across runs and diffable per commit.
type metric struct {
	name  string
	value float64
}

func emitAll(base record, ms []metric) {
	for _, m := range ms {
		rec := base
		rec.Metric, rec.Value = m.name, m.value
		emit(rec)
	}
}

// textf prints to stdout only in text mode, keeping tables out of the
// machine-readable outputs.
func textf(format string, args ...any) {
	if *flagFormat == "text" {
		fmt.Printf(format, args...)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ankerbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	switch *flagFormat {
	case "text", "csv", "json":
	default:
		fail("unknown format %q (want text, csv or json)", *flagFormat)
	}
	if *flagQuick {
		// Smoke preset; flags passed explicitly still win.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["rows"] {
			*flagRows = 4096
		}
		if !set["writes"] {
			*flagWrites = 1024
		}
		if !set["dur"] {
			*flagDur = 300 * time.Millisecond
		}
	}
	var strats []ankerdb.SnapshotStrategy
	for _, s := range strings.Split(*flagStrategies, ",") {
		strats = append(strats, ankerdb.SnapshotStrategy(strings.TrimSpace(s)))
	}
	benches := map[string]bool{}
	for _, b := range strings.Split(*flagBench, ",") {
		switch b = strings.TrimSpace(b); b {
		case "create", "write", "mixed", "commit":
			benches[b] = true
		default:
			fail("unknown bench %q (want create, write, mixed or commit)", b)
		}
	}
	emitEnv()
	if benches["commit"] && runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "ankerbench: warning: GOMAXPROCS=1 — the shard sweep cannot"+
			" show wall-clock speedup on one CPU; its artifact numbers understate multi-core scaling")
	}
	if benches["create"] {
		benchCreate(strats)
	}
	if benches["write"] {
		benchWrite(strats)
	}
	if benches["mixed"] {
		benchMixed(strats)
	}
	if benches["commit"] {
		benchCommit()
	}
	flush()
}

// emitEnv records the execution environment in every machine-readable
// artifact: shard-sweep results are meaningless without knowing how
// many CPUs the run actually had.
func emitEnv() {
	textf("== environment: GOMAXPROCS=%d NumCPU=%d ==\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	base := record{Bench: "env", Strategy: "", Shards: -1, Writers: -1, Scanners: -1, Touch: -1}
	emitAll(base, []metric{
		{"gomaxprocs", float64(runtime.GOMAXPROCS(0))},
		{"numcpu", float64(runtime.NumCPU())},
	})
}

// flush writes the collected records in the selected machine-readable
// format. Text mode has already printed its tables.
func flush() {
	switch *flagFormat {
	case "text":
	case "csv":
		w := csv.NewWriter(os.Stdout)
		writeRow := func(fields ...string) {
			if err := w.Write(fields); err != nil {
				fail("csv: %v", err)
			}
		}
		writeRow("bench", "mix", "strategy", "shards", "writers", "scanners", "touch", "metric", "value")
		for _, r := range records {
			writeRow(r.Bench, r.Mix, r.Strategy,
				dimStr(r.Shards), dimStr(r.Writers), dimStr(r.Scanners), dimStr(r.Touch),
				r.Metric, strconv.FormatFloat(r.Value, 'g', -1, 64))
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fail("csv: %v", err)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fail("json: %v", err)
		}
	default:
		fail("unknown format %q (want text, csv or json)", *flagFormat)
	}
}

// dimStr renders a benchmark dimension, empty when it does not apply.
func dimStr(v int) string {
	if v < 0 {
		return ""
	}
	return strconv.Itoa(v)
}

// openLoaded opens a DB with one table of cols columns, bulk-loaded.
func openLoaded(strat ankerdb.SnapshotStrategy, cols int, extra ...ankerdb.Option) *ankerdb.DB {
	schema := ankerdb.Schema{Table: "bench"}
	for c := 0; c < cols; c++ {
		schema.Columns = append(schema.Columns,
			ankerdb.ColumnDef{Name: colName(c), Type: ankerdb.Int64})
	}
	db, err := ankerdb.Open(append([]ankerdb.Option{
		ankerdb.WithSnapshotStrategy(strat),
		ankerdb.WithInitialSchema(schema, *flagRows),
	}, extra...)...)
	if err != nil {
		fail("open %s: %v", strat, err)
	}
	vals := make([]int64, *flagRows)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	for c := 0; c < cols; c++ {
		if err := db.Load("bench", colName(c), vals); err != nil {
			fail("load: %v", err)
		}
	}
	return db
}

func colName(i int) string { return fmt.Sprintf("c%d", i) }

// benchCreate measures snapshot creation latency versus the number of
// columns an OLAP transaction touches (Table 1 / Figure 5a). Each cell
// is the wall time of the snapshot calls / the simulated kernel time of
// the whole OLAP begin, the page-ins that map the snapshot included.
func benchCreate(strats []ankerdb.SnapshotStrategy) {
	textf("== snapshot creation: wall time / simulated kernel time (rows/column=%d, cols=%d) ==\n", *flagRows, *flagCols)
	textf("%-10s", "strategy")
	for touch := 1; touch <= *flagCols; touch *= 2 {
		textf("  %21s", fmt.Sprintf("%d col(s)", touch))
	}
	textf("  %8s\n", "VMAs")
	for _, strat := range strats {
		db := openLoaded(strat, *flagCols)
		textf("%-10s", strat)
		for touch := 1; touch <= *flagCols; touch *= 2 {
			before := db.Stats()
			r, err := db.Begin(ankerdb.OLAP)
			if err != nil {
				fail("%v", err)
			}
			for c := 0; c < touch; c++ {
				if _, err := r.Get("bench", colName(c), 0); err != nil {
					fail("%v", err)
				}
			}
			after := db.Stats()
			if err := r.Commit(); err != nil {
				fail("%v", err)
			}
			// Rotate the generation so the next round snapshots afresh.
			w, err := db.Begin(ankerdb.OLTP)
			if err != nil {
				fail("%v", err)
			}
			if err := w.Set("bench", "c0", 0, 1); err != nil {
				fail("%v", err)
			}
			if err := w.Commit(); err != nil {
				fail("%v", err)
			}
			elapsed := after.SnapshotCreateTime - before.SnapshotCreateTime
			sim := after.SimKernelTime - before.SimKernelTime
			textf("  %10v / %-8v", elapsed, sim)
			base := record{Bench: "create", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1, Touch: touch}
			emitAll(base, []metric{
				{"snapshot_create_ns", float64(elapsed.Nanoseconds())},
				{"sim_kernel_ns", float64(sim.Nanoseconds())},
			})
		}
		st := db.Stats()
		textf("  %8d\n", st.NumVMAs)
		emit(record{Bench: "create", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1,
			Touch: -1, Metric: "vmas", Value: float64(st.NumVMAs)})
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
	}
	textf("\n")
}

// benchWrite measures the cost absorbed by writes landing after a
// snapshot: kernel COW page copies versus the manual user-space COW
// path of rewiring (Figure 5b).
func benchWrite(strats []ankerdb.SnapshotStrategy) {
	textf("== write-after-snapshot cost (%d writes across %d rows) ==\n", *flagWrites, *flagRows)
	textf("%-10s  %12s  %12s  %10s  %10s  %12s\n",
		"strategy", "commit time", "sim kernel", "COW breaks", "sig hooks", "words copied")
	for _, strat := range strats {
		db := openLoaded(strat, *flagCols)
		// Pin a snapshot of every column so each write is a first write
		// against a COW-shared or write-protected page.
		r, err := db.Begin(ankerdb.OLAP)
		if err != nil {
			fail("%v", err)
		}
		for c := 0; c < *flagCols; c++ {
			if _, err := r.Get("bench", colName(c), 0); err != nil {
				fail("%v", err)
			}
		}
		before := db.Stats()
		start := time.Now()
		stride := *flagRows / *flagWrites
		if stride == 0 {
			stride = 1
		}
		w, err := db.Begin(ankerdb.OLTP)
		if err != nil {
			fail("%v", err)
		}
		for i := 0; i < *flagWrites; i++ {
			if err := w.Set("bench", "c0", (i*stride)%*flagRows, int64(i)); err != nil {
				fail("%v", err)
			}
		}
		if err := w.Commit(); err != nil {
			fail("commit: %v", err)
		}
		elapsed := time.Since(start)
		after := db.Stats()
		if err := r.Commit(); err != nil {
			fail("%v", err)
		}
		sim := after.SimKernelTime - before.SimKernelTime
		textf("%-10s  %12v  %12v  %10d  %10d  %12d\n", strat, elapsed, sim,
			after.VM.COWBreaks-before.VM.COWBreaks,
			after.VM.SignalHooks-before.VM.SignalHooks,
			after.VM.WordsCopied-before.VM.WordsCopied)
		base := record{Bench: "write", Strategy: string(strat), Shards: -1, Writers: -1, Scanners: -1, Touch: -1}
		emitAll(base, []metric{
			{"commit_ns", float64(elapsed.Nanoseconds())},
			{"sim_kernel_ns", float64(sim.Nanoseconds())},
			{"cow_breaks", float64(after.VM.COWBreaks - before.VM.COWBreaks)},
			{"sig_hooks", float64(after.VM.SignalHooks - before.VM.SignalHooks)},
			{"words_copied", float64(after.VM.WordsCopied - before.VM.WordsCopied)},
		})
		if err := db.Close(); err != nil {
			fail("close: %v", err)
		}
	}
	textf("\n")
}

// parseMixes validates and splits -mix: "uniform" is the original
// random-cell writer; the rest are internal/workload profiles.
func parseMixes() []string {
	var out []string
	for _, m := range strings.Split(*flagMix, ",") {
		m = strings.TrimSpace(m)
		if m != "uniform" && !workload.Profile(m).Valid() {
			fail("unknown mix %q (want uniform or one of %v)", m, workload.Profiles)
		}
		out = append(out, m)
	}
	return out
}

// benchMixed runs the paper's mixed workload: OLTP writers commit
// against OLAP scanners aggregating snapshotted columns, swept across
// the -mix writer profiles — uniform random cells, the YCSB zipfian
// read/update mixes, and the new-order/payment-style TPCC mix.
func benchMixed(strats []ankerdb.SnapshotStrategy) {
	for _, mix := range parseMixes() {
		textf("== mixed workload (%s, %d writers, %d scanners, refresh every %d commits, %v) ==\n",
			mix, *flagWriters, *flagScanners, *flagRefresh, *flagDur)
		textf("%-10s  %10s  %10s  %8s  %10s  %10s  %10s\n",
			"strategy", "commits/s", "scans/s", "aborts", "snapshots", "staleness", "COW breaks")
		for _, strat := range strats {
			db := openLoaded(strat, *flagCols, ankerdb.WithSnapshotRefresh(*flagRefresh))
			commits, scans, aborts, avgStale := runMixed(db, mix, *flagWriters, *flagScanners, *flagDur)
			st := db.Stats()
			secs := flagDur.Seconds()
			textf("%-10s  %10.0f  %10.0f  %8d  %10d  %10.1f  %10d\n", strat,
				float64(commits)/secs, float64(scans)/secs,
				aborts, st.SnapshotsCreated, avgStale, st.VM.COWBreaks)
			base := record{Bench: "mixed", Mix: mix, Strategy: string(strat), Shards: st.CommitShards,
				Writers: *flagWriters, Scanners: *flagScanners, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", float64(commits) / secs},
				{"scans_per_sec", float64(scans) / secs},
				{"aborts", float64(aborts)},
				{"snapshots", float64(st.SnapshotsCreated)},
				{"staleness", avgStale},
				{"cow_breaks", float64(st.VM.COWBreaks)},
			})
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}
		}
		textf("\n")
	}
}

// runMixed drives writers and scanners against db for dur and returns
// the committed/scanned/aborted counts and average scanner staleness.
// mix selects the writer body; scanners are the same for every mix.
func runMixed(db *ankerdb.DB, mix string, writers, scanners int, dur time.Duration) (commits, scans, aborts uint64, avgStale float64) {
	var stop atomic.Bool
	var cCommits, cScans, cAborts, staleness, staleSamples atomic.Uint64
	var wg sync.WaitGroup
	cols := make([]string, *flagCols)
	for c := range cols {
		cols[c] = colName(c)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if mix != "uniform" {
				g := workload.NewGen(workload.Profile(mix), seed, cols, *flagRows)
				r := &workload.Runner{DB: db, Table: "bench", Cols: cols}
				for !stop.Load() {
					res, err := r.Apply(g.Next())
					if err != nil {
						return
					}
					if res.Committed {
						cCommits.Add(1)
					} else {
						cAborts.Add(1)
					}
				}
				return
			}
			rnd := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					return
				}
				col := colName(rnd.Intn(*flagCols))
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", col, rnd.Intn(*flagRows), rnd.Int63n(1000)); err != nil {
						return
					}
				}
				if w.Commit() == nil {
					cCommits.Add(1)
				} else {
					cAborts.Add(1)
				}
			}
		}(int64(i) + 1)
	}
	for i := 0; i < scanners; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(-seed))
			for !stop.Load() {
				r, err := db.Begin(ankerdb.OLAP)
				if err != nil {
					return
				}
				staleness.Add(r.Staleness())
				staleSamples.Add(1)
				if _, err := r.Aggregate("bench", colName(rnd.Intn(*flagCols)), ankerdb.Sum); err != nil {
					_ = r.Abort()
					return
				}
				if err := r.Commit(); err != nil {
					return
				}
				cScans.Add(1)
			}
		}(int64(i) + 1)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if n := staleSamples.Load(); n > 0 {
		avgStale = float64(staleness.Load()) / float64(n)
	}
	return cCommits.Load(), cScans.Load(), cAborts.Load(), avgStale
}

// benchCommit is the Figure 11 experiment: pure OLTP commit throughput
// as the writer count grows, swept across commit shard counts. Writers
// have disjoint column footprints (writer i owns column i), so with
// enough shards their commits validate and install in parallel;
// snapshot refresh is disabled to isolate the commit pipeline.
func benchCommit() {
	shardCounts := parseShards()
	writerCounts := powersOfTwoUpTo(*flagWriters)
	cols := *flagCols
	if cols < *flagWriters {
		cols = *flagWriters
	}

	// results[shards][writers] = commits/s
	results := make(map[int]map[int]float64)
	for _, shards := range shardCounts {
		results[shards] = map[int]float64{}
		for _, writers := range writerCounts {
			db := openLoaded(ankerdb.VMSnap, cols,
				ankerdb.WithCommitShards(shards),
				ankerdb.WithSnapshotRefresh(0))
			st0 := db.Stats()
			commits, aborts := runCommitters(db, writers, *flagDur)
			st := db.Stats()
			if err := db.Close(); err != nil {
				fail("close: %v", err)
			}
			perSec := float64(commits) / flagDur.Seconds()
			results[shards][writers] = perSec
			meanBatch := 0.0
			if batches := st.CommitBatches - st0.CommitBatches; batches > 0 {
				meanBatch = float64(st.Commits-st0.Commits) / float64(batches)
			}
			base := record{Bench: "commit", Strategy: string(ankerdb.VMSnap),
				Shards: st.CommitShards, Writers: writers, Scanners: 0, Touch: -1}
			emitAll(base, []metric{
				{"commits_per_sec", perSec},
				{"aborts", float64(aborts)},
				{"commit_batches", float64(st.CommitBatches)},
				{"mean_batch_size", meanBatch},
				{"cross_shard_commits", float64(st.CommitShardConflicts)},
				{"recent_list_records", float64(st.RecentCommitRecords)},
			})
		}
	}

	textf("== commit scaling (Figure 11): 8 writes/txn, disjoint columns, snapshots off, %v/point ==\n", *flagDur)
	textf("%-8s", "writers")
	for _, shards := range shardCounts {
		textf("  %14s", fmt.Sprintf("shards=%d", shardLabel(shards)))
	}
	if len(shardCounts) >= 2 {
		textf("  %8s", "speedup")
	}
	textf("\n")
	for _, writers := range writerCounts {
		textf("%-8d", writers)
		for _, shards := range shardCounts {
			textf("  %14.0f", results[shards][writers])
		}
		if len(shardCounts) >= 2 {
			lo := results[shardCounts[0]][writers]
			hi := results[shardCounts[len(shardCounts)-1]][writers]
			if lo > 0 {
				textf("  %7.2fx", hi/lo)
			}
		}
		textf("\n")
	}
	textf("\n")
}

// runCommitters drives writers committing 8-row write sets into their
// own columns for dur.
func runCommitters(db *ankerdb.DB, writers int, dur time.Duration) (commits, aborts uint64) {
	var stop atomic.Bool
	var cCommits, cAborts atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(writer) + 1))
			col := colName(writer)
			for !stop.Load() {
				w, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					return
				}
				for k := 0; k < 8; k++ {
					if err := w.Set("bench", col, rnd.Intn(*flagRows), rnd.Int63n(1000)); err != nil {
						return
					}
				}
				if w.Commit() == nil {
					cCommits.Add(1)
				} else {
					cAborts.Add(1)
				}
			}
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return cCommits.Load(), cAborts.Load()
}

// parseShards parses -shards; 0 entries resolve to GOMAXPROCS at Open
// time but are labelled with the resolved value in output.
func parseShards() []int {
	var out []int
	for _, s := range strings.Split(*flagShards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			fail("bad -shards entry %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		fail("-shards is empty")
	}
	return out
}

func shardLabel(n int) int {
	if n == 0 {
		return ankerdb.AutoCommitShards()
	}
	return n
}

func powersOfTwoUpTo(n int) []int {
	var out []int
	for w := 1; w < n; w *= 2 {
		out = append(out, w)
	}
	out = append(out, n)
	return out
}
