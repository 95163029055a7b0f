package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/profile"
	"sparker/serve"
)

// replRPS is the open-loop rate of serve-replicated: about half the
// closed-loop max_rps measured on a 2-core x86-64 box.
const replRPS = 1150

// replQueryShare is the share of queries in the serve-replicated mix;
// the rest are upserts.
const replQueryShare = 0.8

// replStack is a leader with the op log and WAL on and one follower,
// each behind its own 127.0.0.1 listener.
type replStack struct {
	idx      *index.Index
	leader   *server
	follower *server
	f        *serve.Follower
	fh       *serve.Handler
	cancel   context.CancelFunc
	runDone  chan struct{}
	walDir   string
	probe    *replProbe // nil in untraced runs
}

// replProbe is the traced run's view into the replicated stack: the
// handler wrappers' spans and the replication feed as the leader serves
// it.
type replProbe struct {
	tr *Tracer
	on atomic.Bool

	mu            sync.Mutex
	queryHandler  map[int64]float64 // request ID → handler time (ms)
	upsertHandler []float64
	polls         int
	pollOps       int64
}

func (p *replProbe) observe(ex *exchange) {
	switch ex.r.URL.Path {
	case "/v1/query":
		p.tr.Record(0, "serve.query", 0, ex.req, ex.start, ex.end)
		p.mu.Lock()
		p.queryHandler[ex.req] = float64(ex.end-ex.start) / 1e6
		p.mu.Unlock()
	case "/v1/upsert":
		p.tr.Record(0, "serve.upsert", 0, ex.req, ex.start, ex.end)
		p.mu.Lock()
		p.upsertHandler = append(p.upsertHandler, float64(ex.end-ex.start)/1e6)
		p.mu.Unlock()
	case "/v1/deltas":
		since, _ := strconv.ParseInt(ex.r.URL.Query().Get("since"), 10, 64)
		seq, _ := strconv.ParseInt(ex.header.Get("X-Sparker-Seq"), 10, 64)
		p.mu.Lock()
		p.polls++
		if ex.status == 200 && seq > since {
			p.pollOps += seq - since
		}
		p.mu.Unlock()
	}
}

// replSetupTimes are the parts of one set-up.
type replSetupTimes struct{ total, load, walOpen, bootstrap float64 }

// startRepl sets the stack up the way sparker-serve -snapshot
// -oplog-dir and sparker-serve -follow do, and returns once both
// servers answer /readyz 200.
func startRepl(o *runOpts, snap, walDir string, probe *replProbe, c *client) (*replStack, replSetupTimes, error) {
	var t replSetupTimes
	cfg := serveIndexConfig()
	tr := o.tracer
	start := time.Now()
	setupSpan := tr.Start("setup", 0, 0)

	sp := tr.Start("setup.load", setupSpan.ID(), 0)
	idx, err := index.Load(snap, cfg)
	t.load = float64(sp.End()) / 1e9
	if err != nil {
		return nil, t, fmt.Errorf("load snapshot: %w", err)
	}
	t0 := time.Now()
	sp = tr.Start("setup.wal_open", setupSpan.ID(), 0)
	if _, err := idx.OpenWAL(index.WALConfig{Dir: walDir, Sync: index.WALSyncInterval}); err != nil {
		return nil, t, fmt.Errorf("open WAL: %w", err)
	}
	sp.End()
	t.walOpen = time.Since(t0).Seconds()

	s := &replStack{idx: idx, walDir: walDir, probe: probe, runDone: make(chan struct{})}
	var lh http.Handler = serve.NewHandlerOptions(idx, serve.Options{
		SnapshotPath: snap,
		Logger:       o.logger,
		MaxBodyBytes: serve.DefaultMaxBodyBytes,
	})
	if probe != nil {
		lh = wrapHandler(lh, probe.tr, &probe.on, nil, probe.observe)
	}
	if s.leader, err = startServer(lh); err != nil {
		idx.CloseWAL()
		return nil, t, err
	}

	s.f = serve.NewFollower(s.leader.URL, cfg, serve.FollowerOptions{Logger: o.logger})
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	t0 = time.Now()
	sp = tr.Start("setup.bootstrap", setupSpan.ID(), 0)
	fidx, err := s.f.Bootstrap(ctx)
	sp.End()
	t.bootstrap = time.Since(t0).Seconds()
	if err != nil {
		close(s.runDone)
		s.stop()
		return nil, t, fmt.Errorf("follower bootstrap: %w", err)
	}
	s.fh = serve.NewHandlerOptions(fidx, serve.Options{
		Logger:       o.logger,
		MaxBodyBytes: serve.DefaultMaxBodyBytes,
		Follower:     s.f,
	})
	var fh http.Handler = s.fh
	if probe != nil {
		fh = wrapHandler(fh, probe.tr, &probe.on, nil, probe.observe)
	}
	if s.follower, err = startServer(fh); err != nil {
		close(s.runDone)
		s.stop()
		return nil, t, err
	}
	go func() {
		defer close(s.runDone)
		_ = s.f.Run(ctx, s.fh)
	}()
	rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
	defer rcancel()
	if err := waitReady(rctx, c, s.leader.URL, s.follower.URL); err != nil {
		s.stop()
		return nil, t, err
	}
	setupSpan.End()
	t.total = time.Since(start).Seconds()
	return s, t, nil
}

// stop tears the stack down: the follower loop first, so no long poll
// holds the leader, then both servers and the WAL.
func (s *replStack) stop() {
	s.cancel()
	<-s.runDone
	if s.follower != nil {
		s.follower.Close()
	}
	if s.leader != nil {
		s.leader.Close()
	}
	_ = s.idx.CloseWAL()
	_ = os.RemoveAll(s.walDir)
}

// urls are the query targets, in round-robin order.
func (s *replStack) urls() []string { return []string{s.leader.URL, s.follower.URL} }

// exec sends operation o: a query to its round-robin target, a write to
// the leader. A traced request carries its ID and asks for ?debug=1.
func (s *replStack) exec(c *client, d *serveData, o op, req int64, log *phaseLog) error {
	if o.kind == opQuery {
		url := s.urls()[o.target] + "/v1/query?source=1"
		if req != 0 {
			url = s.urls()[o.target] + "/v1/query?debug=1&source=1"
		}
		body, err := c.post(url, o.body, req)
		if err != nil {
			return log.fail(err)
		}
		a, err := decodeAnswer(body)
		if err != nil {
			return log.fail(err)
		}
		log.answer(d.partners[o.query], a, len(body), req)
		return nil
	}
	body, err := c.post(s.leader.URL+"/v1/upsert?source=1", o.body, req)
	if err != nil {
		return log.fail(err)
	}
	if !bytes.Contains(body, []byte(`"created"`)) {
		return log.fail(fmt.Errorf("upsert answer without an acknowledgement: %.80s", body))
	}
	return nil
}

// checkDirect compares the leader's and the follower's HTTP answers on
// a sample of queries with Index.ResolveWithOptions called directly on
// the leader's index: the same candidates, weights, scores and order.
func (s *replStack) checkDirect(c *client, d *serveData, sample []int) error {
	for _, q := range sample {
		ps, err := loader.ReadProfilesJSONL(bytes.NewReader(d.queries[q]), "id")
		if err != nil || len(ps) != 1 {
			return fmt.Errorf("parse query %d: %v", q, err)
		}
		p := ps[0]
		p.SourceID = 1
		want := s.idx.ResolveWithOptions(&p, index.ResolveOptions{Probe: index.ProbeOptions{Policy: s.idx.ProbePolicy()}})
		for _, u := range s.urls() {
			body, err := c.post(u+"/v1/query?source=1", d.queries[q], 0)
			if err != nil {
				return fmt.Errorf("query %d at %s: %w", q, u, err)
			}
			a, err := decodeAnswer(body)
			if err != nil {
				return err
			}
			if err := sameAnswer(s.idx, want, a); err != nil {
				return fmt.Errorf("query %s at %s: %w", p.OriginalID, u, err)
			}
		}
	}
	return nil
}

// sameAnswer compares an HTTP answer with a direct resolution.
func sameAnswer(x *index.Index, want *index.Resolution, got *queryAnswer) error {
	if len(got.Candidates) != len(want.Query.Candidates) || len(got.Matches) != len(want.Matches) {
		return fmt.Errorf("%d candidates and %d matches over HTTP, %d and %d direct",
			len(got.Candidates), len(got.Matches), len(want.Query.Candidates), len(want.Matches))
	}
	for i, wc := range want.Query.Candidates {
		gc := got.Candidates[i]
		orig, src, _ := x.Meta(wc.ID)
		if gc.ID != wc.ID || gc.OriginalID != orig || gc.Source != src || gc.Weight != wc.Weight || gc.SharedKeys != wc.SharedKeys {
			return fmt.Errorf("candidate %d is %s/%d weight %v over HTTP, %s/%d weight %v direct", i, gc.OriginalID, gc.Source, gc.Weight, orig, src, wc.Weight)
		}
	}
	for i, wm := range want.Matches {
		gm := got.Matches[i]
		orig, src, _ := x.Meta(wm.B)
		if gm.ID != wm.B || gm.OriginalID != orig || gm.Source != src || gm.Score != wm.Score {
			return fmt.Errorf("match %d is %s score %v over HTTP, %s score %v direct", i, gm.OriginalID, gm.Score, orig, wm.Score)
		}
	}
	return nil
}

// checkFollowerIdentical waits for the follower to apply every write and
// then compares its answers with the leader's byte for byte.
func (s *replStack) checkFollowerIdentical(c *client, d *serveData, sample []int) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.fh.Index().Seq() < s.idx.Seq() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, leader at %d", s.fh.Index().Seq(), s.idx.Seq())
		}
		time.Sleep(time.Millisecond)
	}
	for _, q := range sample {
		lb, err := c.post(s.leader.URL+"/v1/query?source=1", d.queries[q], 0)
		if err != nil {
			return err
		}
		fb, err := c.post(s.follower.URL+"/v1/query?source=1", d.queries[q], 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(lb, fb) {
			return fmt.Errorf("query %d: follower answer differs from the leader's", q)
		}
	}
	return nil
}

// lagTracker measures replication lag: from a write's acknowledgement
// until the follower has applied the leader's sequence number read at
// that moment.
type lagTracker struct {
	mu      sync.Mutex
	pending []lagMark
	lags    []float64
	stop    chan struct{}
	done    chan struct{}
}

type lagMark struct {
	seq int64
	at  time.Time
}

func startLagTracker(f *serve.Follower) *lagTracker {
	l := &lagTracker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(100 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
			}
			applied := f.Stats().AppliedSeq
			now := time.Now()
			l.mu.Lock()
			k := 0
			for k < len(l.pending) && l.pending[k].seq <= applied {
				l.lags = append(l.lags, millis(now.Sub(l.pending[k].at)))
				k++
			}
			l.pending = l.pending[k:]
			l.mu.Unlock()
		}
	}()
	return l
}

func (l *lagTracker) ack(seq int64) {
	l.mu.Lock()
	l.pending = append(l.pending, lagMark{seq, time.Now()})
	l.mu.Unlock()
}

// finish waits until every acknowledged write is applied (or 30s pass)
// and stops the tracker.
func (l *lagTracker) finish() []float64 {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		n := len(l.pending)
		l.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(l.stop)
	<-l.done
	return l.lags
}

// runReplicated is the serve-replicated workload.
func runReplicated(o *runOpts) (*Result, error) {
	r := newResult(o)
	dir, err := os.MkdirTemp(o.workdir, "repl-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Untimed: the data, and the snapshot the leader restores.
	d := newServeData(serveScale, o.seed)
	snap := filepath.Join(dir, "leader.snap")
	{
		x, err := index.NewFromCollection(profile.NewCleanClean(d.a, d.bIndexed), serveIndexConfig())
		if err != nil {
			return nil, err
		}
		if _, err := x.Save(snap); err != nil {
			return nil, err
		}
	}
	open := int(replRPS * o.seconds.Seconds() / 2)
	ops := d.opStream(open+streamTail, replQueryShare, 2, o.seed)
	sample := newRNG(o.seed, streamOps).Perm(len(d.queries))[:checkSample]
	c := newClient(senders())
	defer c.Close()

	var probe *replProbe
	if o.trace {
		probe = &replProbe{tr: o.tracer, queryHandler: map[int64]float64{}}
	}
	var s *replStack
	var setups []replSetupTimes
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.stop()
		}
		var t replSetupTimes
		if s, t, err = startRepl(o, snap, filepath.Join(dir, fmt.Sprintf("wal-%d", i)), probe, c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t)
	}
	defer s.stop()
	var total, load, walOpen, boot []float64
	for _, t := range setups {
		total = append(total, t.total)
		load = append(load, t.load)
		walOpen = append(walOpen, t.walOpen)
		boot = append(boot, t.bootstrap)
	}
	r.setup(total)
	r.note("leader WAL fsync policy: %s (sparker-serve's -oplog-fsync default), in a temp dir; op log on", index.WALSyncInterval)

	r.check("leader and follower HTTP answers equal Index.ResolveWithOptions on a sample", s.checkDirect(c, d, sample))
	warm := newPhaseLog()
	warmS, _ := ClosedLoop(senders(), warmup, 0, func(i int) error {
		q := sample[i%len(sample)]
		return s.exec(c, d, op{kind: opQuery, target: i % 2, query: q, body: d.queries[q]}, 0, warm)
	})
	r.phase("warm-up", len(warmS), failures(warmS))
	for msg, n := range warm.errs {
		r.problem("%d warm-up queries failed: %s", n, msg)
	}
	kindOf := func(i int) int { return ops[i%len(ops)].kind }
	due := Schedule(open, replRPS, newRNG(o.seed, streamArrivals))

	if o.trace {
		traceReplicated(o, r, s, c, d, ops, due)
	} else {
		log := newPhaseLog()
		cyc := RunCycles(cycleWindows, senders(), due, o.seconds/(2*cycleWindows), func(i int) error {
			return s.exec(c, d, ops[i%len(ops)], 0, log)
		})
		heap := liveHeapMiB()
		openS, closedS := cyc.AllOpen(), cyc.AllClosed()
		r.phase("open-loop", len(openS), failures(openS))
		r.phase("closed-loop", len(closedS), failures(closedS))
		for msg, n := range log.errs {
			r.problem("%d operations failed: %s", n, msg)
		}
		r.serveMetrics(figuresOf(cyc, kindOf), log.quality, heap, total,
			"index.Load + OpenWAL + Follower.Bootstrap until both /readyz answer 200", replRPS, true)
	}
	r.check("follower answers the sample byte-identically to the leader after the drain", s.checkFollowerIdentical(c, d, sample))
	// A resync is the follower's recovery path, and its answers stay
	// correct (checked above), so it is counted, not failed.
	st := s.f.Stats()
	if st.Errors != 0 {
		r.problem("follower had %d poll errors: %s", st.Errors, st.LastError)
	}
	r.note("follower resyncs during the run: %d", st.Resyncs)
	if o.trace {
		r.layer("setup.load_s", Median(load), len(load), "median index.Load over set-ups")
		r.layer("setup.wal_open_s", Median(walOpen), len(walOpen), "median OpenWAL over set-ups")
		r.layer("setup.bootstrap_s", Median(boot), len(boot), "median Follower.Bootstrap over set-ups")
	}
	return r, nil
}

// traceReplicated runs the traced phases of serve-replicated: a traced
// open loop and a traced closed loop give the per-layer metrics, and an
// untraced closed loop after them the tracing overhead.
func traceReplicated(o *runOpts, r *Result, s *replStack, c *client, d *serveData, ops []op, due []time.Duration) {
	p, tr := s.probe, o.tracer
	third := o.seconds / 3
	if n := int(replRPS * third.Seconds()); n < len(due) {
		due = due[:n]
	}
	kindOf := func(i int) int { return ops[i%len(ops)].kind }
	snap0 := s.idx.Snapshot()
	st0 := s.f.Stats()
	conns0 := s.leader.Accepts() + s.follower.Accepts()
	lag := startLagTracker(s.f)
	log := newPhaseLog()
	var reqs atomic.Int64
	tracedExec := func(i int) error {
		next := ops[i%len(ops)]
		req := reqs.Add(1)
		name := "client.query"
		if next.kind != opQuery {
			name = "client.upsert"
		}
		sp := tr.Start(name, 0, req)
		err := s.exec(c, d, next, req, log)
		sp.End()
		if err == nil && next.kind != opQuery {
			lag.ack(s.idx.Seq())
		}
		return err
	}
	p.on.Store(true)
	tracedStart := time.Now()
	openS := OpenLoop(senders(), due, tracedExec)
	closedS, tracedElapsed := ClosedLoop(senders(), third, len(due), tracedExec)
	tracedWall := time.Since(tracedStart)
	p.on.Store(false)
	lags := lag.finish()
	tr.LinkByReq("serve.query", "client.query")
	tr.LinkByReq("serve.upsert", "client.upsert")
	snap1 := s.idx.Snapshot()
	st1 := s.f.Stats()
	conns := s.leader.Accepts() + s.follower.Accepts() - conns0

	plain := newPhaseLog()
	first := len(due) + len(closedS)
	plainS, plainElapsed := ClosedLoop(senders(), third, first, func(i int) error {
		return s.exec(c, d, ops[i%len(ops)], 0, plain)
	})
	r.phase("traced-open", len(openS), failures(openS))
	r.phase("traced-closed", len(closedS), failures(closedS))
	r.phase("untraced-closed", len(plainS), failures(plainS))
	for _, l := range []*phaseLog{log, plain} {
		for msg, n := range l.errs {
			r.problem("%d operations failed: %s", n, msg)
		}
	}

	all := append(append([]Sample{}, openS...), closedS...)
	client := latencies(all, kindOf, false)
	r.layerSummary("client.query_ms", client[opQuery], "client send to answer, traced phases")
	r.layerSummary("client.upsert_ms", client[opReplace], "client send to answer, traced phases")
	var handler, overhead []float64
	for req, h := range p.queryHandler {
		handler = append(handler, h)
		if idx, ok := log.debug[req]; ok {
			overhead = append(overhead, h-idx)
		}
	}
	r.layerSummary("serve.query_handler_ms", handler, "span around ServeHTTP")
	r.layerSummary("serve.query_overhead_ms", overhead, "handler time minus ?debug=1 total_nanos: decode, admission, encode")
	r.layerSummary("serve.upsert_handler_ms", p.upsertHandler, "span around ServeHTTP")
	r.layer("serve.query_resp_bytes", plain.meanBytes(), plain.answers, "mean answer size, untraced closed loop (no debug section)")

	ix := log.index
	r.layerSummary("index.resolve_ms", ix.resolveMs, "?debug=1 total_nanos")
	for _, stage := range []string{"tokenize", "purge_filter", "candidates", "weigh", "prune", "score"} {
		xs := ix.stageUs[stage]
		r.layer("index."+stage+"_us", Mean(xs), len(xs), "mean ?debug=1 stage time")
	}
	r.layer("index.postings_scanned", Mean(ix.postings), len(ix.postings), "mean per query")
	r.layer("index.candidates", Mean(ix.candidates), len(ix.candidates), "mean per query, before pruning")
	r.layer("index.comparisons", Mean(ix.comparisons), len(ix.comparisons), "mean per query")
	r.layer("index.pruned", Mean(ix.pruned), len(ix.pruned), "mean per query")
	mr := Ratio{float64(ix.matches), float64(ix.compared)}
	r.layerRatio("index.match_ratio", mr, len(ix.comparisons), "matches / comparisons")

	if snap0.WAL != nil && snap1.WAL != nil {
		appended := snap1.WAL.Appended - snap0.WAL.Appended
		walBytes := snap1.WAL.Bytes - snap0.WAL.Bytes
		bpo := Ratio{float64(walBytes), float64(appended)}
		r.layer("wal.bytes_per_op", bpo.Value(), int(appended), "WAL bytes / ops appended = "+bpo.String())
		r.layer("wal.syncs", float64(snap1.WAL.Syncs-snap0.WAL.Syncs), 1, fmt.Sprintf("fsyncs over %.2f s of traced phases", tracedWall.Seconds()))
	} else {
		r.problem("leader snapshot has no WAL section")
	}
	p.mu.Lock()
	polls, pollOps := p.polls, p.pollOps
	p.mu.Unlock()
	opp := Ratio{float64(pollOps), float64(polls)}
	r.layer("replication.polls", float64(polls), 1, "/v1/deltas requests at the leader's handler wrapper")
	r.layer("replication.ops_per_poll", opp.Value(), polls, "ops shipped / polls = "+opp.String())
	r.layerSummary("replication.lag_ms", lags, "write acknowledged to follower AppliedSeq reaching the leader's Seq at the ack")
	r.layer("replication.resyncs", float64(st1.Resyncs-st0.Resyncs), 1, "Follower.Stats delta")
	r.layer("net.conns_opened", float64(conns), 1, fmt.Sprintf("accepts on the leader and follower listeners during traced phases (leader %d, follower %d in total)", s.leader.Accepts(), s.follower.Accepts()))
	late := Summarize(lateMs(openS), 0.99)
	r.layer("loadgen.late_ms.p99", late.Tail, late.N, late.TailLabel()+" of how late the open-loop generator sent")

	perOpTraced := tracedElapsed.Seconds() / float64(len(closedS))
	perOpPlain := plainElapsed.Seconds() / float64(len(plainS))
	ov := Ratio{perOpTraced, perOpPlain}
	r.layerRatio("trace.overhead_ratio", ov, len(closedS), "closed-loop time per request, traced / untraced, in s")
}
