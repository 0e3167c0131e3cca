package ankerdb

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ankerdb/internal/telemetry"
)

// Telemetry wiring: every hot phase of the engine feeds a lock-free
// log2 latency histogram (internal/telemetry), every notable state
// transition lands in an always-on flight-recorder ring, and queries
// slower than WithSlowQueryThreshold are captured with their full
// per-operator breakdown. Exporters: Stats carries histogram
// snapshots, MetricsText renders Prometheus text, TraceDump renders
// the flight recorder, and WithMetricsServer serves all of it (plus
// expvar and pprof) over HTTP.

// Hist is an immutable latency-histogram snapshot: log2 nanosecond
// buckets (Buckets[i] counts observations below 2^i ns), a count and
// a cumulative sum, with Mean/Quantile/Merge/String helpers. Stats
// exposes one per instrumented phase.
type Hist = telemetry.Hist

// HistBucketBound returns the exclusive upper bound of Hist bucket i;
// the last bucket is unbounded.
func HistBucketBound(i int) time.Duration { return telemetry.BucketBound(i) }

// traceRingSize is the flight-recorder capacity: the newest this many
// events survive for TraceDump. Sized to hold a useful post-mortem
// window while keeping the always-on ring's footprint (~96 KiB of
// noscan memory) negligible next to any real working set — on small
// heaps the ring raises the collector's live floor, so bigger is not
// free.
const traceRingSize = 2048

// slowLogCap bounds the slow-query log: the newest this many entries
// survive for SlowQueries.
const slowLogCap = 64

// dbTelemetry is the per-DB observability state. It lives by value
// inside DB (histograms are atomics and must not be copied; DB is
// only ever handled by pointer).
type dbTelemetry struct {
	rec *telemetry.Recorder

	// Commit pipeline phases. Lock-wait is observed per committer,
	// validate/install/fsync once per batch (the amortized granularity
	// the batch actually pays them at).
	commitLockWait telemetry.Histogram
	commitValidate telemetry.Histogram
	commitInstall  telemetry.Histogram
	commitFsync    telemetry.Histogram

	snapCreate telemetry.Histogram // per column snapshot (Fig 5's y-axis)
	queryExec  telemetry.Histogram // Query.Run end to end
	checkpoint telemetry.Histogram // Checkpoint duration
	recovery   telemetry.Histogram // Open-time replay (one observation)
	vacuum     telemetry.Histogram // reclaimer passes, automatic and Vacuum's

	// Count histograms (telemetry.Counts): the size of each commit
	// batch, and at each replica ack the primary receives how many
	// committed timestamps the replica trails by.
	groupSize telemetry.Histogram
	replLag   telemetry.Histogram

	queryIDs atomic.Uint64

	slowThresh time.Duration // WithSlowQueryThreshold; 0 = disabled

	slowMu   sync.Mutex
	slow     []SlowQuery
	slowNext int
}

// SlowQuery is one slow-query log entry: a query whose end-to-end
// execution took at least WithSlowQueryThreshold, with the execution
// statistics (per-operator rows in/out, zone-map skip counts, the
// index-route decision, morsel count) needed to attribute the time.
type SlowQuery struct {
	At       time.Time     // completion wall-clock time
	Duration time.Duration // end-to-end Run latency
	Table    string        // probe table
	Stats    QueryStats
}

func (t *dbTelemetry) noteSlow(q SlowQuery) {
	t.slowMu.Lock()
	if len(t.slow) < slowLogCap {
		t.slow = append(t.slow, q)
	} else {
		t.slow[t.slowNext] = q
		t.slowNext = (t.slowNext + 1) % slowLogCap
	}
	t.slowMu.Unlock()
}

// SlowQueries returns the retained slow-query log entries, oldest
// first. Empty unless WithSlowQueryThreshold is set and queries
// crossed it.
func (db *DB) SlowQueries() []SlowQuery {
	t := &db.tel
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]SlowQuery, 0, len(t.slow))
	out = append(out, t.slow[t.slowNext:]...)
	out = append(out, t.slow[:t.slowNext]...)
	return out
}

// TraceDump writes the flight recorder's surviving events (oldest
// first) and the slow-query log to w: the first stop when attributing
// a stall after the fact. The recorder is always on; events older
// than its ring capacity are gone.
func (db *DB) TraceDump(w io.Writer) {
	rec := db.tel.rec
	fmt.Fprintf(w, "# ankerdb flight recorder: %d events recorded, ring capacity %d\n",
		rec.Seq(), traceRingSize)
	rec.WriteTrace(w)
	if slow := db.SlowQueries(); len(slow) > 0 {
		fmt.Fprintf(w, "# slow queries (threshold %v):\n", db.tel.slowThresh)
		for _, q := range slow {
			st := q.Stats
			fmt.Fprintf(w, "%s  %s  table=%s morsels=%d rows=%d/%d blocks=%d skipped=%d index=%v\n",
				q.At.Format(time.RFC3339Nano), q.Duration, q.Table,
				st.Morsels, st.RowsScanned, st.RowsEmitted,
				st.BlocksScanned, st.BlocksSkipped, st.IndexRouted)
			for _, op := range st.Operators {
				fmt.Fprintf(w, "    %-12s in=%d out=%d\n", op.Op, op.RowsIn, op.RowsOut)
			}
		}
	}
}

// MetricsText renders every engine counter and phase histogram in
// Prometheus text exposition format under the stable ankerdb_* name
// schema (counters end in _total, histograms in _seconds). It walks the
// metric tags of Stats (see Stats); only ankerdb_info, whose labels are
// Stats fields, and ankerdb_trace_events_total, which is not one, are
// written by hand. The same bytes are served at /metrics by
// WithMetricsServer.
func (db *DB) MetricsText(w io.Writer) error {
	s := db.Stats()
	fmt.Fprintf(w, "# HELP ankerdb_info engine configuration\n# TYPE ankerdb_info gauge\n")
	fmt.Fprintf(w, "ankerdb_info{strategy=%q,sync=%q,durable=\"%v\",shards=\"%d\"} 1\n",
		telemetry.PromEscape(s.Strategy), telemetry.PromEscape(s.SyncPolicy), s.Durable, s.CommitShards)
	replicating := s.Serving || s.Replica || s.Promoted
	v := reflect.ValueOf(s)
	for _, m := range statsMetrics {
		if m.repl && !replicating {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, promTypes[m.kind])
		f := v.Field(m.field)
		switch m.kind {
		case "seconds":
			fmt.Fprintf(w, "%s %g\n", m.name, time.Duration(f.Int()).Seconds())
		case "latency", "counts":
			unit, labels := telemetry.Seconds, ""
			if m.kind == "counts" {
				unit = telemetry.Counts
			}
			if m.byStrategy {
				labels = fmt.Sprintf("strategy=%q", telemetry.PromEscape(s.Strategy))
			}
			f.Interface().(Hist).WriteProm(w, m.name, labels, unit)
		default:
			if f.Kind() == reflect.Bool {
				fmt.Fprintf(w, "%s %d\n", m.name, b2i(f.Bool()))
			} else {
				fmt.Fprintf(w, "%s %v\n", m.name, f.Interface())
			}
		}
	}
	fmt.Fprintf(w, "# HELP ankerdb_trace_events_total flight-recorder events recorded\n# TYPE ankerdb_trace_events_total counter\nankerdb_trace_events_total %d\n", db.tel.rec.Seq())
	return nil
}

// promTypes maps each metric kind a Stats tag may name to the
// Prometheus type it renders as.
var promTypes = map[string]string{
	"counter": "counter",
	"gauge":   "gauge",
	"seconds": "counter",
	"latency": "histogram",
	"counts":  "histogram",
}

// statsMetric is one Stats field's metric tag, parsed (see Stats).
type statsMetric struct {
	field            int
	name, kind, help string
	repl, byStrategy bool
}

// statsMetrics lists the series MetricsText renders, in field order.
var statsMetrics = parseStatsMetrics()

func parseStatsMetrics() []statsMetric {
	var out []statsMetric
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		if tag == "-" {
			continue
		}
		parts := strings.Split(tag, ",")
		if len(parts) < 2 || promTypes[parts[1]] == "" {
			panic(fmt.Sprintf("ankerdb: Stats.%s: metric tag %q wants name,kind", f.Name, tag))
		}
		m := statsMetric{field: i, name: parts[0], kind: parts[1], help: f.Tag.Get("help")}
		for _, opt := range parts[2:] {
			switch opt {
			case "repl":
				m.repl = true
			case "strategy":
				m.byStrategy = true
			default:
				panic(fmt.Sprintf("ankerdb: Stats.%s: unknown metric option %q", f.Name, opt))
			}
		}
		out = append(out, m)
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// expvar publication: one process-wide "ankerdb" variable mapping each
// open DB (labeled by its metrics address or a process-unique id) to
// its Stats snapshot. Registered lazily by the first metrics server so
// tests opening thousands of DBs pay nothing.
var (
	expOnce sync.Once
	expMu   sync.Mutex
	expDBs  = map[*DB]string{}
)

func expvarRegister(db *DB, label string) {
	expOnce.Do(func() {
		expvar.Publish("ankerdb", expvar.Func(func() any {
			expMu.Lock()
			defer expMu.Unlock()
			out := make(map[string]Stats, len(expDBs))
			for d, l := range expDBs {
				out[l] = d.Stats()
			}
			return out
		}))
	})
	expMu.Lock()
	expDBs[db] = label
	expMu.Unlock()
}

func expvarUnregister(db *DB) {
	expMu.Lock()
	delete(expDBs, db)
	expMu.Unlock()
}

// startMetricsServer brings up the opt-in observability endpoint
// (WithMetricsServer): /metrics in Prometheus text format, /debug/vars
// (expvar, including the "ankerdb" Stats map), /debug/pprof, and
// /debug/trace serving TraceDump. A dedicated mux, not
// http.DefaultServeMux, so embedding applications' handlers are never
// touched. addr may be host:0 to pick a free port (see MetricsAddr).
func (db *DB) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ankerdb: metrics server: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = db.MetricsText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		db.TraceDump(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	db.metricsLn = ln
	db.metricsSrv = &http.Server{Handler: mux}
	expvarRegister(db, ln.Addr().String())
	go func() { _ = db.metricsSrv.Serve(ln) }()
	return nil
}

// MetricsAddr returns the metrics endpoint's listen address (useful
// with WithMetricsServer("127.0.0.1:0")), or "" when no metrics
// server is running.
func (db *DB) MetricsAddr() string {
	if db.metricsLn == nil {
		return ""
	}
	return db.metricsLn.Addr().String()
}

func (db *DB) stopMetricsServer() {
	if db.metricsSrv != nil {
		expvarUnregister(db)
		_ = db.metricsSrv.Close()
		db.metricsSrv = nil
		db.metricsLn = nil
	}
}
