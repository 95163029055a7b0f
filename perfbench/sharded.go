package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/index"
	"sparker/internal/profile"
	"sparker/serve"
)

// shardRPS is the open-loop rate of serve-sharded: about half the
// closed-loop max_rps measured on a 2-core x86-64 box.
const shardRPS = 450

// numShards is the coordinator's shard count.
const numShards = 3

// shardStack is a coordinator over numShards shard handlers, each
// behind its own 127.0.0.1 listener.
type shardStack struct {
	shards  []*server
	cluster *serve.Cluster
	coord   *server
}

// shardProbe is the traced run's view into the sharded stack.
type shardProbe struct {
	tr *Tracer
	on atomic.Bool

	mu         sync.Mutex
	shardIndex map[int64]float64 // shard span ID → the shard's debug total_nanos (ms)
	shardBytes []float64
}

func (p *shardProbe) observeShard(ex *exchange) {
	if ex.r.URL.Path != "/v1/query" {
		return
	}
	id := p.tr.Record(0, "shard.query", 0, 0, ex.start, ex.end)
	var a queryAnswer
	_ = json.Unmarshal(ex.body, &a)
	p.mu.Lock()
	if a.Debug != nil {
		p.shardIndex[id] = float64(a.Debug.TotalNanos) / 1e6
	}
	p.shardBytes = append(p.shardBytes, float64(ex.bytes))
	p.mu.Unlock()
}

func (p *shardProbe) observeCoord(ex *exchange) {
	if ex.r.URL.Path == "/v1/query" {
		p.tr.Record(0, "coordinator.query", 0, ex.req, ex.start, ex.end)
	}
}

// startSharded sets up numShards empty shard handlers and a coordinator
// with sparker-serve's defaults, ingests A and the indexed half of B
// through the coordinator's /v1/bulk, and returns once every server
// answers /readyz 200. It returns the set-up and the ingest time.
func startSharded(o *runOpts, d *serveData, probe *shardProbe, c *client) (*shardStack, float64, float64, error) {
	start := time.Now()
	tr := o.tracer
	setupSpan := tr.Start("setup", 0, 0)
	s := &shardStack{}
	var urls []string
	for i := 0; i < numShards; i++ {
		x, err := index.NewFromCollection(profile.NewCleanClean(nil, nil), serveIndexConfig())
		if err != nil {
			return nil, 0, 0, err
		}
		var h http.Handler = serve.NewHandlerOptions(x, serve.Options{Logger: o.logger, MaxBodyBytes: serve.DefaultMaxBodyBytes})
		if probe != nil {
			isQuery := func(r *http.Request) bool { return r.URL.Path == "/v1/query" }
			h = wrapHandler(h, probe.tr, &probe.on, isQuery, probe.observeShard)
		}
		srv, err := startServer(h)
		if err != nil {
			s.stop()
			return nil, 0, 0, err
		}
		s.shards = append(s.shards, srv)
		urls = append(urls, srv.URL)
	}
	cl, err := serve.NewCluster(urls, serve.ClusterOptions{
		Logger:        o.logger,
		MaxBodyBytes:  serve.DefaultMaxBodyBytes,
		ProbeInterval: 500 * time.Millisecond,
	})
	if err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	s.cluster = cl
	var ch http.Handler = cl
	if probe != nil {
		ch = wrapHandler(ch, probe.tr, &probe.on, nil, probe.observeCoord)
	}
	if s.coord, err = startServer(ch); err != nil {
		s.stop()
		return nil, 0, 0, err
	}

	t0 := time.Now()
	sp := tr.Start("setup.bulk", setupSpan.ID(), 0)
	for _, load := range []struct {
		query string
		ps    []profile.Profile
	}{{"", d.a}, {"?source=1", d.bIndexed}} {
		body, err := c.post(s.coord.URL+"/v1/bulk"+load.query, jsonLines(load.ps), 0)
		if err != nil {
			s.stop()
			return nil, 0, 0, fmt.Errorf("bulk ingest: %w", err)
		}
		var ack struct {
			Upserted int `json:"upserted"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.Upserted != len(load.ps) {
			s.stop()
			return nil, 0, 0, fmt.Errorf("bulk ingest upserted %d of %d (%v)", ack.Upserted, len(load.ps), err)
		}
	}
	sp.End()
	bulk := time.Since(t0).Seconds()
	all := append([]string{s.coord.URL}, urls...)
	rctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := waitReady(rctx, c, all...); err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	setupSpan.End()
	return s, time.Since(start).Seconds(), bulk, nil
}

func (s *shardStack) stop() {
	if s.coord != nil {
		s.coord.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, sh := range s.shards {
		sh.Close()
	}
}

// shardAccepts is the number of connections the shards have accepted.
func (s *shardStack) shardAccepts() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Accepts()
	}
	return n
}

// exec sends one query to the coordinator and checks that every shard
// answered.
func (s *shardStack) exec(c *client, d *serveData, o op, req int64, log *phaseLog) error {
	body, err := c.post(s.coord.URL+"/v1/query?source=1", o.body, req)
	if err != nil {
		return log.fail(err)
	}
	a, err := decodeAnswer(body)
	if err != nil {
		return log.fail(err)
	}
	if a.Cluster == nil || a.Cluster.Shards != numShards || a.Cluster.Responded != numShards {
		return log.fail(fmt.Errorf("coordinator answer without all %d shards: %+v", numShards, a.Cluster))
	}
	log.answer(d.partners[o.query], a, len(body), req)
	return nil
}

// runSharded is the serve-sharded workload.
func runSharded(o *runOpts) (*Result, error) {
	r := newResult(o)
	d := newServeData(serveScale, o.seed)
	open := int(shardRPS * o.seconds.Seconds() / 2)
	ops := d.opStream(open+streamTail, 1, 1, o.seed)
	c := newClient(senders())
	defer c.Close()

	var probe *shardProbe
	if o.trace {
		probe = &shardProbe{tr: o.tracer, shardIndex: map[int64]float64{}}
	}
	var s *shardStack
	var setups, bulks []float64
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.stop()
		}
		var total, bulk float64
		var err error
		if s, total, bulk, err = startSharded(o, d, probe, c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, total)
		bulks = append(bulks, bulk)
	}
	defer s.stop()
	r.setup(setups)

	warm := newPhaseLog()
	warmS, _ := ClosedLoop(senders(), warmup, 0, func(i int) error { return s.exec(c, d, ops[i%len(ops)], 0, warm) })
	r.phase("warm-up", len(warmS), failures(warmS))

	if o.trace {
		traceSharded(o, r, s, c, d, ops, probe)
		r.layer("setup.bulk_s", Median(bulks), len(bulks), "median /v1/bulk ingest through the coordinator over set-ups")
		checkAllShards(r)
		return r, nil
	}

	due := Schedule(open, shardRPS, newRNG(o.seed, streamArrivals))
	log := newPhaseLog()
	cyc := RunCycles(cycleWindows, senders(), due, o.seconds/(2*cycleWindows), func(i int) error {
		return s.exec(c, d, ops[i%len(ops)], 0, log)
	})
	heap := liveHeapMiB()
	openS, closedS := cyc.AllOpen(), cyc.AllClosed()
	r.phase("open-loop", len(openS), failures(openS))
	r.phase("closed-loop", len(closedS), failures(closedS))
	for _, l := range []*phaseLog{warm, log} {
		for msg, n := range l.errs {
			r.problem("%d operations failed: %s", n, msg)
		}
	}
	checkAllShards(r)
	r.serveMetrics(figuresOf(cyc, func(int) int { return opQuery }), log.quality, heap, setups,
		"shards, coordinator and /v1/bulk ingest until every /readyz answers 200", shardRPS, false)
	return r, nil
}

// checkAllShards records the coordinator check: every query of every
// phase was answered 200 by all shards (exec fails any other answer).
func checkAllShards(r *Result) {
	var err error
	if n := r.failed(); n > 0 {
		err = fmt.Errorf("%d of %d queries failed", n, r.attempted())
	}
	r.check(fmt.Sprintf("every coordinator answer is 200 with cluster.responded == %d", numShards), err)
}

// traceSharded runs one traced and one untraced closed loop over a
// single connection, so each shard span falls inside exactly one
// coordinator span, and derives the coordinator's breakdown from the
// nesting.
func traceSharded(o *runOpts, r *Result, s *shardStack, c *client, d *serveData, ops []op, p *shardProbe) {
	one := newClient(1)
	defer one.Close()
	half := o.seconds / 2
	conns0 := s.shardAccepts()
	log := newPhaseLog()
	var reqs atomic.Int64
	p.on.Store(true)
	tracedS, tracedElapsed := ClosedLoop(1, half, 0, func(i int) error {
		req := reqs.Add(1)
		sp := o.tracer.Start("client.query", 0, req)
		err := s.exec(one, d, ops[i%len(ops)], req, log)
		sp.End()
		return err
	})
	p.on.Store(false)
	conns := s.shardAccepts() - conns0
	plain := newPhaseLog()
	plainS, plainElapsed := ClosedLoop(1, half, len(tracedS), func(i int) error {
		return s.exec(one, d, ops[i%len(ops)], 0, plain)
	})
	r.phase("traced-closed", len(tracedS), failures(tracedS))
	r.phase("untraced-closed", len(plainS), failures(plainS))
	for _, l := range []*phaseLog{log, plain} {
		for msg, n := range l.errs {
			r.problem("%d operations failed: %s", n, msg)
		}
	}

	o.tracer.LinkByReq("coordinator.query", "client.query")
	o.tracer.SetParents("shard.query", "coordinator.query")
	spans := o.tracer.Spans()
	kids := map[int64][]Span{}
	for _, sp := range spans {
		if sp.Name == "shard.query" && sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var handler, wait, overhead, shardH, shardIdx, shardOver, skew []float64
	bad := 0
	for _, sp := range spans {
		if sp.Name != "coordinator.query" {
			continue
		}
		ks := kids[sp.ID]
		if len(ks) != numShards {
			bad++
			continue
		}
		first, last := ks[0].Start, ks[0].End
		var durs []float64
		for _, k := range ks {
			first, last = min(first, k.Start), max(last, k.End)
			h := float64(k.Dur()) / 1e6
			durs = append(durs, h)
			shardH = append(shardH, h)
			if ix, ok := p.shardIndex[k.ID]; ok {
				shardIdx = append(shardIdx, ix)
				shardOver = append(shardOver, h-ix)
			}
		}
		h := float64(sp.Dur()) / 1e6
		w := float64(last-first) / 1e6
		handler = append(handler, h)
		wait = append(wait, w)
		overhead = append(overhead, h-w)
		slices.Sort(durs)
		if med := durs[len(durs)/2]; med > 0 {
			skew = append(skew, durs[len(durs)-1]/med)
		}
	}
	if bad > 0 {
		r.problem("%d coordinator spans did not hold exactly %d shard spans", bad, numShards)
	}
	r.layerSummary("coordinator.handler_ms", handler, "span around the coordinator's ServeHTTP")
	r.layerSummary("coordinator.shard_wait_ms", wait, "first shard span start to last shard span end")
	r.layerSummary("coordinator.overhead_ms", overhead, "handler minus shard wait: decode, fan-out, merge, encode")
	kq := Ratio{float64(conns), float64(len(tracedS)) / 1000}
	r.layer("coordinator.shard_conns_per_kq", kq.Value(), len(tracedS), "shard accepts / thousand queries = "+kq.String())
	r.layer("coordinator.resp_bytes", plain.meanBytes(), plain.answers, "mean coordinator answer size")
	r.layer("shard.resp_bytes", Mean(p.shardBytes), len(p.shardBytes), "mean shard answer size (debug forced on by the coordinator)")
	r.layerSummary("shard.handler_ms", shardH, "span around each shard's ServeHTTP")
	r.layerSummary("shard.index_ms", shardIdx, "the shard's debug total_nanos, from the teed answer")
	r.layerSummary("shard.overhead_ms", shardOver, "shard handler minus its index time")
	r.layerSummary("shard.skew", skew, "slowest / median shard handler time per query")

	perOpTraced := tracedElapsed.Seconds() / float64(len(tracedS))
	perOpPlain := plainElapsed.Seconds() / float64(len(plainS))
	ov := Ratio{perOpTraced, perOpPlain}
	r.layerRatio("trace.overhead_ratio", ov, len(tracedS), "one-connection closed-loop time per query, traced / untraced, in s")
}
