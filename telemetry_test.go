package ankerdb_test

// Telemetry acceptance tests: the /metrics endpoint agrees with Stats
// after a mixed OLTP/OLAP workload, the Stats histogram/counter
// invariants hold under concurrent load for every snapshot strategy,
// and the flight recorder + slow-query log capture what ran.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ankerdb"
)

// metricValue finds a series in a Prometheus text dump by name,
// matching labeled series by prefix, and returns its value.
func metricValue(body, name string) (uint64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if fields[0] != name && !strings.HasPrefix(fields[0], name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, false
		}
		return uint64(v), true
	}
	return 0, false
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// mixedWorkload runs concurrent OLTP writers (with deliberate row
// overlap, so some commits conflict) and OLAP queriers, plus one
// explicit abort and one empty commit, then quiesces. during runs on
// the test goroutine while the writers and queriers are in flight.
func mixedWorkload(t *testing.T, db *ankerdb.DB, during func()) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				txn, err := db.Begin(ankerdb.OLTP)
				if err != nil {
					errCh <- err
					return
				}
				if err := txn.Set("acct", "bal", (w*13+i)%64, int64(w*1000+i)); err != nil {
					errCh <- err
					txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil && !errors.Is(err, ankerdb.ErrConflict) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Query("acct").
					Where(ankerdb.Ge("bal", 0)).
					Aggregate(ankerdb.CountRows()).
					Run(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	during()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("workload: %v", err)
	}

	// One explicit abort and one empty (read-only) commit.
	txn, err := db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := txn.Set("acct", "bal", 0, 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	txn.Abort()
	txn, err = db.Begin(ankerdb.OLTP)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	mustCommit(t, txn)
}

func TestMetricsEndpointMatchesStats(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap,
		ankerdb.WithMetricsServer("127.0.0.1:0"),
		ankerdb.WithSlowQueryThreshold(time.Nanosecond))
	defer db.Close()

	addr := db.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr is empty with WithMetricsServer set")
	}
	base := "http://" + addr

	// The endpoint serves mid-stress, not just at rest.
	mixedWorkload(t, db, func() {
		code, body := httpGet(t, base+"/metrics")
		if _, ok := metricValue(body, "ankerdb_txn_commits_total"); code != http.StatusOK || !ok {
			t.Fatalf("mid-workload /metrics: status %d, commits series present %v", code, ok)
		}
	})

	s := db.Stats()
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}

	// The scrape's counters and histogram counts must agree with Stats
	// at quiescence (background vacuum keeps running, so its counters
	// are excluded).
	for name, want := range map[string]uint64{
		"ankerdb_txn_commits_total":             s.Commits,
		"ankerdb_txn_conflicts_total":           s.Conflicts,
		"ankerdb_txn_aborts_total":              s.Aborts,
		"ankerdb_txn_empty_commits_total":       s.EmptyCommits,
		"ankerdb_commit_batches_total":          s.CommitBatches,
		"ankerdb_commit_validate_seconds_count": s.CommitBatches,
		"ankerdb_commit_install_seconds_count":  s.CommitInstallHist.Count,
		"ankerdb_group_commit_size_count":       s.GroupCommitSize.Count,
		"ankerdb_group_commit_size_sum":         s.Commits + s.Conflicts,
		"ankerdb_snapshots_created_total":       s.SnapshotsCreated,
		"ankerdb_snapshot_create_seconds_count": s.SnapshotsCreated,
		"ankerdb_queries_total":                 s.QueriesRun,
		"ankerdb_query_exec_seconds_count":      s.QueriesRun,
	} {
		got, ok := metricValue(body, name)
		if !ok {
			t.Errorf("/metrics is missing series %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	for _, name := range []string{"ankerdb_info", "ankerdb_trace_events_total"} {
		if _, ok := metricValue(body, name); !ok {
			t.Errorf("/metrics is missing series %s", name)
		}
	}
	if s.Commits == 0 || s.QueriesRun == 0 || s.SnapshotsCreated == 0 {
		t.Fatalf("workload left no trace: commits=%d queries=%d snapshots=%d",
			s.Commits, s.QueriesRun, s.SnapshotsCreated)
	}
	if got, want := s.GroupCommitSize.String(), fmt.Sprintf("n=%d ", s.CommitBatches); !strings.HasPrefix(got, want) {
		t.Errorf("GroupCommitSize.String() = %q, want %q prefix", got, want)
	}

	// The companion endpoints serve.
	if code, body := httpGet(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "ankerdb") {
		t.Errorf("/debug/vars status=%d, contains ankerdb=%v", code, strings.Contains(body, "ankerdb"))
	}
	if code, _ := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
	code, trace := httpGet(t, base+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", code)
	}
	for _, want := range []string{"txn.begin", "txn.commit", "query.start", "query.finish", "snap.create"} {
		if !strings.Contains(trace, want) {
			t.Errorf("/debug/trace is missing %q events", want)
		}
	}
}

// TestCostModelPricesKernelWork: a cost model prices the simulated
// kernel's events, it never waits for them. At 50 ms per system call the
// two vm_snapshot calls behind a column snapshot still return in well
// under 50 ms, and their 100 ms appear in SimKernelTime and its metric
// instead. Under ZeroCost the same work prices at nothing.
func TestCostModelPricesKernelWork(t *testing.T) {
	const entry = 50 * time.Millisecond
	snapshotC0 := func(db *ankerdb.DB) {
		r, err := db.Begin(ankerdb.OLAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get("bench", "c0", 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	db := openBenchDB(t, 1, ankerdb.WithCostModel(ankerdb.CostModel{SyscallEntry: entry}))
	defer db.Close()
	before := db.Stats().SimKernelTime
	snapshotC0(db)
	s := db.Stats()
	if s.LastSnapshotTime >= entry {
		t.Fatalf("a column snapshot took %v under a %v-per-syscall model: the model stalled it", s.LastSnapshotTime, entry)
	}
	if got := s.SimKernelTime - before; got != 2*entry {
		t.Fatalf("SimKernelTime grew by %v over two vm_snapshot calls, want %v", got, 2*entry)
	}
	var text strings.Builder
	if err := db.MetricsText(&text); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nankerdb_sim_kernel_seconds_total %g\n", s.SimKernelTime.Seconds()); !strings.Contains(text.String(), want) {
		t.Fatalf("metrics lack %q", strings.TrimSpace(want))
	}

	zero := openBenchDB(t, 1) // ZeroCost
	defer zero.Close()
	snapshotC0(zero)
	if s := zero.Stats(); s.VM.VMSnapshots == 0 || s.SimKernelTime != 0 {
		t.Fatalf("ZeroCost: %d vm_snapshot calls priced at %v, want some calls at 0", s.VM.VMSnapshots, s.SimKernelTime)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := openTestDB(t, ankerdb.Physical,
		ankerdb.WithSlowQueryThreshold(time.Nanosecond)) // everything is slow
	defer db.Close()

	set(t, db, "acct", "bal", 1, 42)
	if _, err := db.Query("acct").
		Where(ankerdb.Ge("bal", 1)).
		Aggregate(ankerdb.CountRows()).
		Run(); err != nil {
		t.Fatalf("Query: %v", err)
	}

	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("SlowQueries is empty below a 1ns threshold")
	}
	q := slow[len(slow)-1]
	if q.Table != "acct" {
		t.Errorf("slow query table = %q, want acct", q.Table)
	}
	var ops []string
	for _, op := range q.Stats.Operators {
		ops = append(ops, op.Op)
	}
	want := []string{"scan", "filter", "aggregate"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("operator breakdown = %v, want %v", ops, want)
	}
	// The scan feeds the filter feeds the aggregate: RowsIn chains.
	for i := 1; i < len(q.Stats.Operators); i++ {
		if q.Stats.Operators[i].RowsIn != q.Stats.Operators[i-1].RowsOut {
			t.Errorf("operator %d RowsIn = %d, want previous RowsOut %d",
				i, q.Stats.Operators[i].RowsIn, q.Stats.Operators[i-1].RowsOut)
		}
	}
	var dump strings.Builder
	db.TraceDump(&dump)
	if !strings.Contains(dump.String(), "slow queries") {
		t.Error("TraceDump does not render the slow-query log")
	}
}

// TestStatsDescribesEveryMetric: every Stats field carries a metric tag
// ("-" when it has no series), and MetricsText renders each tagged name
// exactly once as a HELP line — on a serving primary, where the
// replication families render too. Only the two hand-written families
// remain beside them.
func TestStatsDescribesEveryMetric(t *testing.T) {
	db := openTestDB(t, ankerdb.VMSnap, ankerdb.WithDurability(t.TempDir()), ankerdb.WithServeAddr("127.0.0.1:0"))
	defer db.Close()
	var text strings.Builder
	if err := db.MetricsText(&text); err != nil {
		t.Fatal(err)
	}
	help := map[string]int{}
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "#" && f[1] == "HELP" {
			help[f[2]]++
		}
	}
	st := reflect.TypeOf(ankerdb.Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			t.Errorf("Stats.%s has no metric tag", f.Name)
			continue
		}
		if tag == "-" {
			continue
		}
		name := strings.Split(tag, ",")[0]
		if help[name] != 1 {
			t.Errorf("Stats.%s: %s has %d HELP lines, want 1", f.Name, name, help[name])
		}
		delete(help, name)
	}
	if len(help) != 2 || help["ankerdb_info"] != 1 || help["ankerdb_trace_events_total"] != 1 {
		t.Errorf("HELP lines beside the tagged families: %v, want ankerdb_info and ankerdb_trace_events_total", help)
	}
}

// checkStatsInvariants asserts the relations Stats documents for one
// sample, possibly taken mid-flight.
func checkStatsInvariants(t *testing.T, s *ankerdb.Stats) {
	t.Helper()
	if s.SnapshotsCreated < s.SnapshotsReleased {
		t.Errorf("SnapshotsCreated %d < SnapshotsReleased %d", s.SnapshotsCreated, s.SnapshotsReleased)
	}
	for name, pair := range map[string][2]uint64{
		"SnapshotCreateHist <= SnapshotsCreated": {s.SnapshotCreateHist.Count, s.SnapshotsCreated},
		"QueryExecHist <= QueriesRun":            {s.QueryExecHist.Count, s.QueriesRun},
		"CommitValidateHist <= CommitBatches":    {s.CommitValidateHist.Count, s.CommitBatches},
		"CommitInstallHist <= CommitBatches":     {s.CommitInstallHist.Count, s.CommitBatches},
		"CommitFsyncHist <= CommitBatches":       {s.CommitFsyncHist.Count, s.CommitBatches},
		"GroupCommitSize <= CommitBatches":       {s.GroupCommitSize.Count, s.CommitBatches},
		"VacuumHist <= Vacuums":                  {s.VacuumHist.Count, s.Vacuums},
		"CheckpointHist <= CheckpointCount":      {s.CheckpointHist.Count, s.CheckpointCount},
	} {
		if pair[0] > pair[1] {
			t.Errorf("%s violated: %d > %d", name, pair[0], pair[1])
		}
	}
	// Snapshot loads buckets before count, and Observe bumps count
	// before its bucket, so a sample racing observations may see Count
	// ahead of the bucket sum — never behind it. Exact equality is a
	// quiescence-only invariant (asserted by the caller after the
	// workload drains).
	for name, h := range histsOf(s) {
		var sum uint64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum > h.Count {
			t.Errorf("%s bucket sum %d > Count %d", name, sum, h.Count)
		}
	}
	if s.IndexEntries > s.IndexEntriesRaw {
		t.Errorf("IndexEntries %d > IndexEntriesRaw %d", s.IndexEntries, s.IndexEntriesRaw)
	}
}

// histsOf names the histogram-valued Stats fields the invariant
// checks sweep.
func histsOf(s *ankerdb.Stats) map[string]ankerdb.Hist {
	return map[string]ankerdb.Hist{
		"CommitValidateHist": s.CommitValidateHist,
		"CommitInstallHist":  s.CommitInstallHist,
		"SnapshotCreateHist": s.SnapshotCreateHist,
		"QueryExecHist":      s.QueryExecHist,
		"VacuumHist":         s.VacuumHist,
		"GroupCommitSize":    s.GroupCommitSize,
	}
}

func TestStatsInvariantsUnderLoad(t *testing.T) {
	for _, strat := range strategies {
		t.Run(string(strat), func(t *testing.T) {
			db := openTestDB(t, strat)
			defer db.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 150; i++ {
						txn, err := db.Begin(ankerdb.OLTP)
						if err != nil {
							t.Errorf("Begin: %v", err)
							return
						}
						// Disjoint row ranges per writer: no conflicts.
						if err := txn.Set("acct", "bal", w*512+i, int64(i)); err != nil {
							t.Errorf("Set: %v", err)
							txn.Abort()
							return
						}
						if err := txn.Commit(); err != nil {
							t.Errorf("Commit: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					if _, err := db.Query("acct").
						Where(ankerdb.Gt("bal", 0)).
						Aggregate(ankerdb.SumOf("bal")).
						Run(); err != nil {
						t.Errorf("Query: %v", err)
						return
					}
				}
			}()
			// Sampler: invariants hold on every mid-flight snapshot, and
			// the headline counters are monotone across samples.
			samplerDone := make(chan struct{})
			go func() {
				defer close(samplerDone)
				var prev ankerdb.Stats
				for {
					s := db.Stats()
					checkStatsInvariants(t, &s)
					for name, pair := range map[string][2]uint64{
						"Commits":          {prev.Commits, s.Commits},
						"QueriesRun":       {prev.QueriesRun, s.QueriesRun},
						"CommitBatches":    {prev.CommitBatches, s.CommitBatches},
						"SnapshotsCreated": {prev.SnapshotsCreated, s.SnapshotsCreated},
						"Vacuums":          {prev.Vacuums, s.Vacuums},
					} {
						if pair[1] < pair[0] {
							t.Errorf("%s went backwards: %d -> %d", name, pair[0], pair[1])
						}
					}
					prev = s
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-samplerDone

			// Quiesced: bucket sums reconcile exactly, and each
			// histogram count equals its companion counter.
			s := db.Stats()
			checkStatsInvariants(t, &s)
			for name, h := range histsOf(&s) {
				var sum uint64
				for _, b := range h.Buckets {
					sum += b
				}
				if sum != h.Count {
					t.Errorf("%s bucket sum %d != Count %d at quiescence", name, sum, h.Count)
				}
			}
			for name, pair := range map[string][2]uint64{
				"SnapshotCreateHist.Count == SnapshotsCreated":  {s.SnapshotCreateHist.Count, s.SnapshotsCreated},
				"QueryExecHist.Count == QueriesRun":             {s.QueryExecHist.Count, s.QueriesRun},
				"CommitValidateHist.Count == CommitBatches":     {s.CommitValidateHist.Count, s.CommitBatches},
				"GroupCommitSize.Count == CommitBatches":        {s.GroupCommitSize.Count, s.CommitBatches},
				"GroupCommitSize.SumNanos == Commits+Conflicts": {s.GroupCommitSize.SumNanos, s.Commits + s.Conflicts},
			} {
				if pair[0] != pair[1] {
					t.Errorf("%s violated: %d != %d", name, pair[0], pair[1])
				}
			}
			if s.Commits != 300 {
				t.Errorf("Commits = %d, want 300", s.Commits)
			}
			if s.QueriesRun != 30 {
				t.Errorf("QueriesRun = %d, want 30", s.QueriesRun)
			}
		})
	}
}
