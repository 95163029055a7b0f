package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"
)

// def names a metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics BENCHMARK.json gates. Every workload reports
// every one of them, each with its workload's own reading (see
// README.md).
var endToEnd = []def{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"recall", "ratio"},
	{"precision", "ratio"},
	{"live_heap_mb", "MiB"},
}

// namedMetrics are the end-to-end metrics by their per-workload names.
// Each workload prints those that apply to it.
var namedMetrics = []def{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"upsert_p50_ms", "ms"},
	{"upsert_p99_ms", "ms"},
	{"max_rps", "req/s"},
	{"ops_failed_ratio", "ratio"},
	{"query_recall", "ratio"},
	{"batch_s", "s"},
	{"blocking_pc", "ratio"},
	{"blocking_pq", "ratio"},
	{"match_f1", "ratio"},
	{"entity_f1", "ratio"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics. A traced run prints all of
// them; a layer its workload does not exercise reads 0.
var perLayer = []def{
	// batch-dataflow
	{"loader.read_s", "s"},
	{"looseschema.partition_s", "s"},
	{"blocking.token_blocking_s", "s"},
	{"blocking.purge_filter_s", "s"},
	{"blocking.build_index_s", "s"},
	{"metablocking.run_s", "s"},
	{"matching.match_s", "s"},
	{"clustering.cc_s", "s"},
	{"looseschema.alloc_mb", "MiB"},
	{"blocking.alloc_mb", "MiB"},
	{"metablocking.alloc_mb", "MiB"},
	{"matching.alloc_mb", "MiB"},
	{"blocking.blocks", "count"},
	{"blocking.comparisons", "count"},
	{"metablocking.edges", "count"},
	{"metablocking.keep_ratio", "ratio"},
	{"matching.pairs_scored", "count"},
	{"matching.match_ratio", "ratio"},
	{"clustering.entities", "count"},
	{"dataflow.tasks", "count"},
	{"dataflow.shuffle_records", "count"},
	{"dataflow.broadcasts", "count"},
	{"dataflow.tasks_retried", "count"},
	// serve-replicated
	{"client.query_ms.p50", "ms"},
	{"client.query_ms.p99", "ms"},
	{"client.upsert_ms.p50", "ms"},
	{"client.upsert_ms.p99", "ms"},
	{"serve.query_handler_ms.p50", "ms"},
	{"serve.query_handler_ms.p99", "ms"},
	{"serve.query_overhead_ms.p50", "ms"},
	{"serve.query_overhead_ms.p99", "ms"},
	{"serve.upsert_handler_ms.p50", "ms"},
	{"serve.upsert_handler_ms.p99", "ms"},
	{"serve.query_resp_bytes", "bytes"},
	{"index.resolve_ms.p50", "ms"},
	{"index.resolve_ms.p99", "ms"},
	{"index.tokenize_us", "us"},
	{"index.purge_filter_us", "us"},
	{"index.candidates_us", "us"},
	{"index.weigh_us", "us"},
	{"index.prune_us", "us"},
	{"index.score_us", "us"},
	{"index.postings_scanned", "count"},
	{"index.candidates", "count"},
	{"index.comparisons", "count"},
	{"index.pruned", "count"},
	{"index.match_ratio", "ratio"},
	{"wal.bytes_per_op", "bytes"},
	{"wal.syncs", "count"},
	{"replication.polls", "count"},
	{"replication.ops_per_poll", "count"},
	{"replication.lag_ms.p50", "ms"},
	{"replication.lag_ms.p99", "ms"},
	{"replication.resyncs", "count"},
	{"net.conns_opened", "count"},
	{"setup.load_s", "s"},
	{"setup.wal_open_s", "s"},
	{"setup.bootstrap_s", "s"},
	{"loadgen.late_ms.p99", "ms"},
	// serve-sharded
	{"coordinator.handler_ms.p50", "ms"},
	{"coordinator.handler_ms.p99", "ms"},
	{"coordinator.shard_wait_ms.p50", "ms"},
	{"coordinator.shard_wait_ms.p99", "ms"},
	{"coordinator.overhead_ms.p50", "ms"},
	{"coordinator.overhead_ms.p99", "ms"},
	{"coordinator.shard_conns_per_kq", "conns/kq"},
	{"coordinator.resp_bytes", "bytes"},
	{"shard.resp_bytes", "bytes"},
	{"shard.handler_ms.p50", "ms"},
	{"shard.handler_ms.p99", "ms"},
	{"shard.index_ms.p50", "ms"},
	{"shard.index_ms.p99", "ms"},
	{"shard.overhead_ms.p50", "ms"},
	{"shard.overhead_ms.p99", "ms"},
	{"shard.skew.p50", "x"},
	{"shard.skew.p99", "x"},
	{"setup.bulk_s", "s"},
	// every workload
	{"trace.overhead_ratio", "ratio"},
}

// Metric is one reported number with the samples behind it.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // samples the value is computed from
	Note  string // how it was computed
	Base  *Ratio // the numerator and base of a ratio metric
}

// Phase counts the operations of one phase of a run.
type Phase struct {
	Name              string
	Attempted, Failed int
}

// Result is everything one workload run reports.
type Result struct {
	Workload string
	Seed     int64
	Trace    bool
	Phases   []Phase
	Problems []string // failed output checks
	Checks   []string // passed output checks
	E2E      map[string]Metric
	Named    map[string]Metric
	Layer    map[string]Metric
	Notes    []string
	SelfTime map[string]Summary
}

func newResult(o *runOpts) *Result {
	return &Result{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		E2E:      map[string]Metric{},
		Named:    map[string]Metric{},
		Layer:    map[string]Metric{},
	}
}

func unitOf(defs []def, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undefined metric " + name) // a typo in this file
}

// record stores a metric; a metric whose unit is "ratio" must come with
// its base.
func record(dst map[string]Metric, defs []def, name string, v float64, base *Ratio, n int, note string) {
	unit := unitOf(defs, name)
	if (unit == "ratio") != (base != nil) {
		panic("perfbench: ratio metric " + name + " must be recorded with its base, and only a ratio metric") // a bug in this package
	}
	dst[name] = Metric{Name: name, Unit: unit, Value: v, N: n, Note: note, Base: base}
}

func (r *Result) e2e(name string, v float64, n int, note string) {
	record(r.E2E, endToEnd, name, v, nil, n, note)
}

func (r *Result) named(name string, v float64, n int, note string) {
	record(r.Named, namedMetrics, name, v, nil, n, note)
}

func (r *Result) layer(name string, v float64, n int, note string) {
	record(r.Layer, perLayer, name, v, nil, n, note)
}

func (r *Result) e2eRatio(name string, x Ratio, n int, note string) {
	record(r.E2E, endToEnd, name, x.Value(), &x, n, note)
}

func (r *Result) namedRatio(name string, x Ratio, n int, note string) {
	record(r.Named, namedMetrics, name, x.Value(), &x, n, note)
}

func (r *Result) layerRatio(name string, x Ratio, n int, note string) {
	record(r.Layer, perLayer, name, x.Value(), &x, n, note)
}

// layerSummary records name.p50 and name.p99 from one sample.
func (r *Result) layerSummary(name string, xs []float64, note string) {
	s := Summarize(xs, 0.99)
	r.layer(name+".p50", s.Median, s.N, "median; "+note)
	r.layer(name+".p99", s.Tail, s.N, s.TailLabel()+" (highest percentile with >=10 samples beyond, at most p99); "+note)
}

func (r *Result) setup(xs []float64) {
	r.note("set-up times (s): %s", joinFloats(xs))
}

func (r *Result) phase(name string, attempted, failed int) {
	r.Phases = append(r.Phases, Phase{name, attempted, failed})
}

func (r *Result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// check records a named output check: passed when err is nil.
func (r *Result) check(name string, err error) {
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	r.Checks = append(r.Checks, name)
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether every output check passed and no operation
// failed.
func (r *Result) Correct() bool { return len(r.Problems) == 0 && r.failed() == 0 }

func (r *Result) attempted() int {
	n := 0
	for _, p := range r.Phases {
		n += p.Attempted
	}
	return n
}

func (r *Result) failed() int {
	n := 0
	for _, p := range r.Phases {
		n += p.Failed
	}
	return n
}

// liveHeapMiB forces a collection and reports the heap still allocated.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// printReport writes the human-readable report.
func printReport(w io.Writer, r *Result) {
	fmt.Fprintf(w, "# workload %s  seed %d  trace %v  GOMAXPROCS %d\n", r.Workload, r.Seed, r.Trace, runtime.GOMAXPROCS(0))
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %-16s attempted %7d  failed %d\n", p.Name, p.Attempted, p.Failed)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check ok      %s\n", c)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "check FAILED  %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note  %s\n", n)
	}
	section := func(title string, defs []def, ms map[string]Metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			if m, ok := ms[d.name]; ok {
				note := m.Note
				if m.Base != nil {
					note = strings.TrimSpace("= " + m.Base.String() + " " + note)
				}
				fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, note)
			}
		}
	}
	section("end-to-end, by workload metric name:", namedMetrics, r.Named)
	section("end-to-end, as gated in BENCHMARK.json:", endToEnd, r.E2E)
	section("per layer:", perLayer, r.Layer)
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(w, "span self time (ms):\n")
		names := make([]string, 0, len(r.SelfTime))
		for n := range r.SelfTime {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			s := r.SelfTime[n]
			fmt.Fprintf(w, "  %-34s median %10.4f  %s %10.4f  n=%d\n", n, s.Median, s.TailLabel(), s.Tail, s.N)
		}
	}
}

// jsonMetric is a metric in the last line of output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLineOf renders the result line: the gated end-to-end metrics of
// an untraced run, or every per-layer metric of a traced one.
func jsonLineOf(r *Result) ([]byte, error) {
	line := resultLine{Correct: r.Correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]jsonMetric{}}
	defs, ms := endToEnd, r.E2E
	if r.Trace {
		defs, ms = perLayer, r.Layer
	}
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok && !r.Trace {
			// An untraced run reports every gated metric or fails.
			line.Correct = false
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Failed = max(line.Failed, 1)
		line.Correct = false
	}
	return json.Marshal(line)
}
