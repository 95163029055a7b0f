package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sparker/internal/index"
)

// Shared by the two serving workloads.
const (
	// serveScale is the SynthAbtBuy multiple the serving workloads index
	// (all of A and half of B: ≈8.1k profiles).
	serveScale = 5
	// serveSetups is how many times a run sets its stack up, for the
	// median set-up time.
	serveSetups = 5
	// checkSample is how many queries the answer checks compare.
	checkSample = 40
	// streamTail is how many operations the stream holds beyond the open
	// loop's. The closed loops cycle through the stream, so it need not
	// cover them, and a short stream keeps the benchmark's own heap
	// small beside the program's in live_heap_mb.
	streamTail = 20000
	// warmup is the untimed closed-loop spell before the first timed
	// phase: connections open and the heap reaches its working size.
	warmup = 300 * time.Millisecond
)

// serveIndexConfig is the index configuration sparker-serve runs with
// when no flag overrides a default: index.DefaultConfig plus the op log
// every serving process keeps.
func serveIndexConfig() index.Config {
	cfg := index.DefaultConfig()
	cfg.OpLog.Enabled = true
	return cfg
}

// senders is the number of sending goroutines and connections of every
// load phase: one per core.
func senders() int { return runtime.NumCPU() }

// queryAnswer is a /v1/query answer as the load generator reads it.
type queryAnswer struct {
	Candidates []struct {
		ID         int32   `json:"id"`
		OriginalID string  `json:"original_id"`
		Source     int     `json:"source"`
		Weight     float64 `json:"weight"`
		SharedKeys int     `json:"shared_keys"`
	} `json:"candidates"`
	Matches []struct {
		ID         int32   `json:"id"`
		OriginalID string  `json:"original_id"`
		Source     int     `json:"source"`
		Score      float64 `json:"score"`
	} `json:"matches"`
	PostingsScanned int `json:"postings_scanned"`
	Pruned          int `json:"pruned"`
	Comparisons     int `json:"comparisons"`
	Debug           *struct {
		Stages []struct {
			Stage string `json:"stage"`
			Nanos int64  `json:"nanos"`
		} `json:"stages"`
		TotalNanos int64 `json:"total_nanos"`
	} `json:"debug"`
	Cluster *struct {
		Shards    int `json:"shards"`
		Responded int `json:"responded"`
	} `json:"cluster"`
}

func decodeAnswer(b []byte) (*queryAnswer, error) {
	var a queryAnswer
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("decode query answer: %w", err)
	}
	return &a, nil
}

// indexStats accumulates the index-side counters of traced answers.
type indexStats struct {
	resolveMs   []float64
	stageUs     map[string][]float64
	postings    []float64
	candidates  []float64
	comparisons []float64
	pruned      []float64
	matches     int
	compared    int
}

func (s *indexStats) add(a *queryAnswer) {
	if s.stageUs == nil {
		s.stageUs = map[string][]float64{}
	}
	if a.Debug != nil {
		s.resolveMs = append(s.resolveMs, float64(a.Debug.TotalNanos)/1e6)
		for _, st := range a.Debug.Stages {
			s.stageUs[st.Stage] = append(s.stageUs[st.Stage], float64(st.Nanos)/1e3)
		}
	}
	s.postings = append(s.postings, float64(a.PostingsScanned))
	s.candidates = append(s.candidates, float64(len(a.Candidates)+a.Pruned))
	s.comparisons = append(s.comparisons, float64(a.Comparisons))
	s.pruned = append(s.pruned, float64(a.Pruned))
	s.matches += len(a.Matches)
	s.compared += a.Comparisons
}

// phaseLog collects what one load phase's operations returned.
type phaseLog struct {
	mu        sync.Mutex
	quality   quality
	answers   int
	respBytes int64
	// Traced requests only: the index counters of their answers, and
	// request ID → index total (ms) from ?debug=1.
	index indexStats
	debug map[int64]float64
	errs  map[string]int // failures by message, for the report
}

func newPhaseLog() *phaseLog {
	return &phaseLog{debug: map[int64]float64{}, errs: map[string]int{}}
}

func (l *phaseLog) answer(partners map[string]bool, a *queryAnswer, size int, req int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quality.add(partners, a)
	l.answers++
	l.respBytes += int64(size)
	if req != 0 {
		l.index.add(a)
		if a.Debug != nil {
			l.debug[req] = float64(a.Debug.TotalNanos) / 1e6
		}
	}
}

// meanBytes is the mean answer size.
func (l *phaseLog) meanBytes() float64 {
	if l.answers == 0 {
		return 0
	}
	return float64(l.respBytes) / float64(l.answers)
}

func (l *phaseLog) fail(err error) error {
	l.mu.Lock()
	msg := err.Error()
	if len(msg) > 120 {
		msg = msg[:120]
	}
	l.errs[msg]++
	l.mu.Unlock()
	return err
}

// failures counts the samples that failed.
func failures(samples []Sample) int {
	n := 0
	for _, s := range samples {
		if s.Err {
			n++
		}
	}
	return n
}

// latencies splits the samples' latencies (ms) by operation kind; with
// fromDue false it takes client time from send to completion instead.
func latencies(samples []Sample, kindOf func(op int) int, fromDue bool) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range samples {
		if s.Err {
			continue
		}
		d := s.Done - s.Sent
		if fromDue {
			d = s.Latency()
		}
		k := kindOf(s.Op)
		if k == opInsert {
			k = opReplace // both are upserts
		}
		out[k] = append(out[k], millis(d))
	}
	return out
}

func lateMs(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = millis(s.Late())
	}
	return out
}

// succeeded counts the samples that did not fail.
func succeeded(samples []Sample) int { return len(samples) - failures(samples) }

// cycleWindows is how many alternating open- and closed-loop windows a
// serving run measures.
const cycleWindows = 10

// serveFigures are a cycled measurement reduced to its end-to-end
// figures.
type serveFigures struct {
	query, upsert       Summary // whole open-loop sample, for n and the tail
	queryP50, upsertP50 float64 // median of the per-window medians
	rps                 float64 // median of the per-window closed-loop rates
	late                Summary
	opened, closed      int
	closedSecs          float64
	windowRPS           []float64
	windowP50           []float64
}

func figuresOf(c Cycles, kindOf func(op int) int) serveFigures {
	var f serveFigures
	var qWin, uWin []float64
	for _, w := range c.Open {
		lat := latencies(w, kindOf, true)
		if xs := lat[opQuery]; len(xs) > 0 {
			qWin = append(qWin, Median(xs))
		}
		if xs := lat[opReplace]; len(xs) > 0 {
			uWin = append(uWin, Median(xs))
		}
	}
	open := c.AllOpen()
	lat := latencies(open, kindOf, true)
	f.query, f.upsert = Summarize(lat[opQuery], 0.99), Summarize(lat[opReplace], 0.99)
	f.queryP50, f.upsertP50 = Median(qWin), Median(uWin)
	f.windowRPS, f.windowP50 = c.ClosedRates(), qWin
	f.rps = Median(f.windowRPS)
	f.late = Summarize(lateMs(open), 0.99)
	f.opened = len(open)
	f.closed = succeeded(c.AllClosed())
	for _, e := range c.Elapsed {
		f.closedSecs += e.Seconds()
	}
	return f
}

// serveMetrics records the end-to-end metrics of a serving run under
// both their workload names and their gated names.
func (r *Result) serveMetrics(f serveFigures, q quality, heap float64, setups []float64, setupNote string, rate int, upserts bool) {
	windows := fmt.Sprintf("median of %d open-loop windows' medians, from due time", cycleWindows)
	r.note("open loop: %d requests at %d req/s with jittered gaps, %d senders, in %d windows; generator late %s %.3f ms, median %.3f ms (n=%d)",
		f.opened, rate, senders(), cycleWindows, f.late.TailLabel(), f.late.Tail, f.late.Median, f.late.N)
	r.note("closed loop: %d connections, %d windows, %.2f s in total; window req/s %s", senders(), cycleWindows, f.closedSecs, joinFloats(f.windowRPS))
	r.note("open-loop query p50 per window (ms): %s", joinFloats(f.windowP50))

	r.named("setup_s", Median(setups), len(setups), "median of set-ups: "+setupNote)
	r.named("query_p50_ms", f.queryP50, f.query.N, windows)
	r.named("query_p99_ms", f.query.Tail, f.query.N, f.query.TailLabel()+" of the whole open-loop sample, from due time")
	if upserts {
		r.named("upsert_p50_ms", f.upsertP50, f.upsert.N, windows)
		r.named("upsert_p99_ms", f.upsert.Tail, f.upsert.N, f.upsert.TailLabel()+" of the whole open-loop sample, from due time")
	}
	r.named("max_rps", f.rps, f.closed, fmt.Sprintf("median of %d closed-loop windows, %d connections, the workload's mix", cycleWindows, senders()))
	r.namedRatio("ops_failed_ratio", Ratio{float64(r.failed()), float64(r.attempted())}, r.attempted(), "failed / attempted over every phase")
	r.namedRatio("query_recall", q.recall(), q.queries, "queries with a true partner among the matches / labelled queries")
	r.named("live_heap_mb", heap, 1, "after a forced GC at the end of the timed phases")

	r.e2e("setup_s", Median(setups), len(setups), "median of set-ups")
	r.e2e("latency_p50_ms", f.queryP50, f.query.N, "query_p50_ms")
	r.e2e("throughput_per_s", f.rps, f.closed, "max_rps")
	r.e2eRatio("recall", q.recall(), q.queries, "query_recall")
	r.e2eRatio("precision", q.precision(), q.returned, "matches that are true partners / matches returned")
	r.e2e("live_heap_mb", heap, 1, "after a forced GC at the end of the timed phases")
}
