// Command perfbench builds the sparker stack from its public
// constructors inside one process and drives it: the batch pipeline on
// the dataflow engine, a leader with one follower on loopback, and a
// coordinator over three shards. It checks the answers, prints a report
// and, as its last line, one JSON object with the run's metrics.
//
//	perfbench --workload serve-replicated --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// makes a traced run and reports the per-layer metrics, writing the
// spans to a JSON file. --workload all runs every workload untraced,
// prints each one's report and then one table of every end-to-end
// metric. README.md describes the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = []struct {
	name string
	run  func(*runOpts) (*Result, error)
}{
	{"batch-dataflow", runBatch},
	{"serve-replicated", runReplicated},
	{"serve-sharded", runSharded},
}

// runOpts are the settings of one run.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	tracer   *Tracer // nil unless trace
	logger   *slog.Logger
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect fails a run whose output checks failed, after its result
// line was printed.
var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "batch-dataflow, serve-replicated, serve-sharded, or all")
	seed := fs.Int64("seed", 1, "seed of the generated data, query order, writes and arrival jitter")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated files and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	o := &runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
		logger:  slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	fmt.Fprintf(stdout, "perfbench seed %d, %v measured per run\n", o.seed, o.seconds)
	if *workload == "all" {
		return runAll(o, stdout)
	}
	for _, w := range workloads {
		if w.name == *workload {
			o.workload = w.name
			_, err := runOne(o, w.run, stdout)
			return err
		}
	}
	return fmt.Errorf("unknown --workload %q", *workload)
}

// runOne runs one workload and prints its report and result line.
func runOne(o *runOpts, fn func(*runOpts) (*Result, error), stdout io.Writer) (*Result, error) {
	if o.trace {
		o.tracer = NewTracer()
	}
	r, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		spans := o.tracer.Spans()
		r.SelfTime = SelfTimeByName(spans)
		path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := o.tracer.WriteFile(path, o.workload, o.seed); err != nil {
			return nil, err
		}
		r.note("trace: %d spans written to %s", len(spans), path)
	}
	printReport(stdout, r)
	line, err := jsonLineOf(r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct() {
		return r, errIncorrect
	}
	return r, nil
}

// runAll runs every workload untraced, one after another, printing each
// report, then one table of the end-to-end metrics of all of them.
func runAll(o *runOpts, stdout io.Writer) error {
	if o.trace {
		return fmt.Errorf("--workload all makes untraced runs only")
	}
	var (
		failed  []string
		results []*Result
	)
	for _, w := range workloads {
		wo := *o
		wo.workload = w.name
		r, err := runOne(&wo, w.run, stdout)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
		results = append(results, r)
	}
	fmt.Fprintf(stdout, "# end-to-end metrics of every workload (value, samples)\n%-18s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %26s", w.name)
	}
	fmt.Fprintln(stdout)
	for _, d := range namedMetrics {
		fmt.Fprintf(stdout, "%-18s %-6s", d.name, d.unit)
		for _, r := range results {
			cell := "-"
			if r != nil {
				if m, ok := r.Named[d.name]; ok {
					cell = fmt.Sprintf("%.6g (n=%d)", m.Value, m.N)
				}
			}
			fmt.Fprintf(stdout, " %26s", cell)
		}
		fmt.Fprintln(stdout)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%v", failed)
	}
	return nil
}
