package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // recorded window length
	trace    bool    // per-layer pass: spans, Stats deltas, micro-kernels
	short    bool    // tests: 1/16 of the rows and counts, no pre-heat
	outDir   string
}

type phaseRec struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Budget  float64 `json:"budget_s"`
}

type checkRec struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

type envRec struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CostModel  string `json:"cost_model"`
	Commit     string `json:"commit"`
	Flush      string `json:"flush_policy"`
}

// run collects everything one run of one workload measures.
type run struct {
	cfg   config
	scale int // row and count divisor (16 in short mode)
	tmp   string

	values  map[string]float64
	samples map[string]int64
	slices  map[string][]float64
	phases  []phaseRec
	checks  []checkRec
	probes  []float64 // host.probe_mops before set-up and after the window
	late    map[string]float64
	extra   map[string]float64 // see note

	attempted, failed int64
	firstErr          error

	env   envRec
	epoch time.Time // trace epoch
	spans [][]span
}

func newRun(cfg config) (*run, error) {
	r := &run{cfg: cfg, scale: 1,
		values: map[string]float64{}, samples: map[string]int64{}, slices: map[string][]float64{},
		late: map[string]float64{}, extra: map[string]float64{}, env: environment(), epoch: time.Now()}
	if cfg.short {
		r.scale = 16
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "db-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r.tmp = tmp
	return r, nil
}

func (r *run) cleanup() { _ = os.RemoveAll(r.tmp) }

// rows and count scale a table size or a count-bound phase.
func (r *run) rows(n int) int { return n / r.scale }
func (r *run) count(n int) int {
	if n/r.scale < 1 {
		return 1
	}
	return n / r.scale
}

// dir returns a fresh scratch directory for one database.
func (r *run) dir(name string) string {
	d, err := os.MkdirTemp(r.tmp, name+"-")
	if err != nil {
		panic(err)
	}
	return d
}

func (r *run) window() time.Duration { return time.Duration(r.cfg.seconds * float64(time.Second)) }

// emit records a metric; each name is emitted at most once per run.
func (r *run) emit(name string, value float64, samples int64) {
	if _, dup := r.values[name]; dup {
		panic("metric emitted twice: " + name)
	}
	r.values[name] = value
	r.samples[name] = samples
}

// note records the result of a single workload (recovery_s and the
// like). The contract's end-to-end list is global, so these are
// emitted as per-layer metrics by the traced pass and only land in the
// results file of an untraced one.
func (r *run) note(name string, value float64, samples int64) {
	if r.cfg.trace {
		r.emit(name, value, samples)
		return
	}
	r.extra[name] = value
	r.samples[name] = samples
}

// phase runs fn, records its wall time against budget and returns
// fn's error. A phase that takes more than twice its budget fails the
// run when it ends (see overruns).
func (r *run) phase(name string, budget time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.phases = append(r.phases, phaseRec{name, time.Since(t0).Seconds(), budget.Seconds()})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (r *run) overruns() []string {
	var out []string
	for _, p := range r.phases {
		if !r.cfg.short && p.Seconds > 2*p.Budget {
			out = append(out, fmt.Sprintf("%s took %.1fs, budget %.1fs", p.Name, p.Seconds, p.Budget))
		}
	}
	return out
}

// check records a correctness check.
func (r *run) check(name string, err error) {
	c := checkRec{Name: name, Pass: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.checks = append(r.checks, c)
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.Pass {
			return false
		}
	}
	return r.failed == 0
}

// account adds a load goroutine's (or a count-bound phase's)
// operations to the run's totals.
func (r *run) account(attempted, failed int64, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// emitRate emits the median slice rate of st.
func (r *run) emitRate(name string, w window, st *loadStats) {
	r.slices[name] = st.sliceRates(w)
	r.emit(name, st.rate(w), st.samples())
}

// emitQuantile emits the q-quantile of the whole window, converted
// from nanoseconds by dividing by div.
func (r *run) emitQuantile(name string, st *loadStats, q, div float64) {
	r.slices[name] = scaled(st.sliceQuantiles(q), div)
	r.emit(name, st.quantile(q)/div, st.samples())
}

func scaled(vals []float64, div float64) []float64 {
	for i := range vals {
		vals[i] /= div
	}
	return vals
}

// ---- host pre-heat and probe ----

var spinSink uint64

// spin runs fixed arithmetic for d and returns its speed in Mops/s.
func spin(d time.Duration) float64 {
	x, n := uint64(88172645463325252), 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += 20000
	}
	spinSink += x
	return float64(n) / time.Since(t0).Seconds() / 1e6
}

// spinBoth runs spin on both load goroutines and returns the slower
// one's speed.
func spinBoth(d time.Duration) float64 {
	var wg sync.WaitGroup
	res := make([]float64, maxLoadGoroutines)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = spin(d)
		}(i)
	}
	wg.Wait()
	return math.Min(res[0], res[1])
}

// preheat brings the host's clocks up before any timer starts (the
// first ~2 s of a process otherwise run at half speed and would land
// in setup_s), then takes the first host probe.
func (r *run) preheat() {
	if !r.cfg.short {
		spinBoth(2 * time.Second)
	}
	r.probe()
}

// probe records a 250-ms fixed-arithmetic speed reading, so that a
// disturbed run can be recognised afterwards.
func (r *run) probe() {
	d := 250 * time.Millisecond
	if r.cfg.short {
		d = 10 * time.Millisecond
	}
	r.probes = append(r.probes, spinBoth(d))
}

// ---- set-up ----

// setupRepeats is how many complete set-ups setup_s is the median of.
const setupRepeats = 5

// setups builds the workload's database setupRepeats times, each on
// fresh scratch, closing all but the last, and emits the median build
// time as setup_s (untraced passes only). build returns the function
// that closes what it built; budget is one build's.
func (r *run) setups(budget time.Duration, build func() (func() error, error)) (func() error, error) {
	n := setupRepeats
	if r.cfg.trace || r.cfg.short {
		n = 1
	}
	var times []float64
	var closer func() error
	err := r.phase("setup", time.Duration(n)*budget, func() error {
		for i := 0; i < n; i++ {
			if closer != nil {
				if err := closer(); err != nil {
					return err
				}
			}
			runtime.GC() // the previous set-up's garbage is not this one's cost
			t0 := time.Now()
			c, err := build()
			if err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
			closer = c
		}
		return nil
	})
	if !r.cfg.trace {
		r.slices["setup_s"] = times
		r.emit("setup_s", median(times), int64(len(times)))
	}
	return closer, err
}

// ---- output ----

func environment() envRec {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRec{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CostModel: "DefaultCost", Commit: commit, Flush: "SyncNone",
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// line builds the contract line: every end-to-end metric untraced,
// every per-layer metric traced (0 where the workload does not
// exercise the layer). It fails if the run emitted a name outside its
// list, left an end-to-end metric out, or measured a non-finite value.
func (r *run) line() (contractLine, error) {
	l := contractLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	known := map[string]string{}
	if r.cfg.trace {
		for _, m := range perLayer {
			known[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			known[m.Name] = m.Unit
		}
	}
	for name, v := range r.values {
		unit, ok := known[name]
		if !ok {
			return l, fmt.Errorf("metric %q is not in this pass's list", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return l, fmt.Errorf("metric %q is not finite", name)
		}
		l.Metrics[name] = metricOut{v, unit}
	}
	for name, unit := range known {
		if _, ok := l.Metrics[name]; ok {
			continue
		}
		if !r.cfg.trace {
			return l, fmt.Errorf("end-to-end metric %q was not measured", name)
		}
		l.Metrics[name] = metricOut{0, unit}
	}
	if l.Attempted < 1 {
		return l, errors.New("no operation was attempted")
	}
	return l, nil
}

// resultsFile is what every run leaves in the output directory.
type resultsFile struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"window_seconds"`
	Traced    bool                 `json:"traced"`
	Env       envRec               `json:"environment"`
	Phases    []phaseRec           `json:"phases"`
	Checks    []checkRec           `json:"checks"`
	Attempted int64                `json:"ops_attempted"`
	Failed    int64                `json:"ops_failed"`
	FirstErr  string               `json:"first_error,omitempty"`
	Probes    []float64            `json:"host_probe_mops"`
	Lateness  map[string]float64   `json:"open_loop_lateness_us,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
	Extra     map[string]float64   `json:"workload_results,omitempty"`
	Samples   map[string]int64     `json:"samples"`
	Slices    map[string][]float64 `json:"slices"`
}

func (r *run) writeResults(l contractLine) error {
	rf := resultsFile{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: r.cfg.trace,
		Env: r.env, Phases: r.phases, Checks: r.checks,
		Attempted: r.attempted, Failed: r.failed, Probes: r.probes, Lateness: r.late,
		Metrics: l.Metrics, Extra: r.extra, Samples: r.samples, Slices: r.slices,
	}
	if r.firstErr != nil {
		rf.FirstErr = r.firstErr.Error()
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("results-%s-%d.json", r.cfg.workload, r.cfg.seed)
	if r.cfg.trace {
		name = fmt.Sprintf("results-%s-%d-traced.json", r.cfg.workload, r.cfg.seed)
	}
	return os.WriteFile(filepath.Join(r.cfg.outDir, name), b, 0o644)
}

// ---- traced pass ----

// tracer returns a span recorder for one load goroutine that samples
// every every-th transaction; nil in an untraced pass.
func (r *run) tracer(lane, every int) *tracer {
	if !r.cfg.trace {
		return nil
	}
	return newTracer(r.epoch, lane, every, 200000)
}

// keep retains the spans of finished tracers for the trace file and
// the self-time numbers.
func (r *run) keep(trs ...*tracer) {
	for _, t := range trs {
		if t != nil {
			r.spans = append(r.spans, t.spans)
		}
	}
}

// span times fn as a root span of its own (a phase-level call such as
// Checkpoint or Vacuum).
func (r *run) span(name string, fn func() error) error {
	var t *tracer
	if r.cfg.trace {
		t = newTracer(r.epoch, len(r.spans)+8, 1, 32)
	}
	t.txnBegin(name)
	err := fn()
	t.end()
	r.keep(t)
	return err
}

func (r *run) selfTimes() map[string][]float64 { return selfTimes(mergeSpans(r.spans...)) }

// emitTxnSpans emits the four embedded OLTP call timings.
func (r *run) emitTxnSpans(self map[string][]float64) {
	r.emitSpan("txn.begin_us", "txn.begin", self, 1e3)
	r.emitSpan("txn.get_us", "txn.get", self, 1e3)
	r.emitSpan("txn.set_us", "txn.set", self, 1e3)
	r.emitSpan("txn.commit_us", "txn.commit", self, 1e3)
}

// emitOLTP and emitOLAP emit the end-to-end numbers of one class.
func (r *run) emitOLTP(w window, st *loadStats) {
	r.emitRate("oltp_txn_per_s", w, st)
	r.emitQuantile("oltp_txn_p50_us", st, 0.50, 1e3)
	r.emitQuantile("oltp_txn_p99_us", st, 0.99, 1e3)
}

func (r *run) emitOLAP(w window, st *loadStats) {
	r.emitRate("olap_txn_per_s", w, st)
	r.emitQuantile("olap_txn_p50_ms", st, 0.50, 1e6)
	r.noteOLAPTail(st)
}

// noteOLAPTail records olap_txn_p95_ms from an untraced window. A 15-s
// window holds about 300 OLAP transactions on htap and olap-query, 15
// beyond the p95, and its ten-run spread passed 25 % whenever the host
// was busy, so it is a noted result (see note), not a gated one.
func (r *run) noteOLAPTail(st *loadStats) {
	r.slices["olap_txn_p95_ms"] = scaled(st.sliceQuantiles(0.95), 1e6)
	r.note("olap_txn_p95_ms", st.quantile(0.95)/1e6, st.samples())
}
