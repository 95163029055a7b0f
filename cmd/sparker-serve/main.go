// Command sparker-serve exposes an online entity index over HTTP: build
// the index once from CSV sources (or the generated benchmark), then
// answer point queries and incremental upserts without re-running the
// batch pipeline.
//
// Two clean-clean CSV sources:
//
//	sparker-serve -a abt.csv -b buy.csv -id id -addr :8080
//
// A single dirty source:
//
//	sparker-serve -dirty products.csv -id id
//
// No inputs: serve the generated SynthAbtBuy benchmark:
//
//	sparker-serve -generate
//
// Endpoints, all under /v1/: POST /v1/query, POST /v1/upsert, POST
// /v1/bulk (JSON-lines bodies, "id" field plus attributes; ?source=1
// targets the second clean source), POST /v1/snapshot/save, GET
// /v1/stats. Every 4xx/5xx answers the typed JSON error envelope
// {"error": {"code", "message"}}; an unversioned path such as /query
// answers 404 not_found. The operator routes /healthz, /readyz and
// /metrics stay unversioned.
//
// With -lsh fallback (or union) the index also maintains MinHash/LSH
// bucket postings beside the token postings: queries whose tokens are
// all purged as too common — invisible to token blocking — fall back to
// an LSH probe that recovers high-overlap matches. /v1/query accepts
// per-request ?probe= and ?probe_floor= overrides, and /v1/stats reports
// bucket and probe counters.
//
// Durable snapshots make restarts warm: with -snapshot the server
// restores the index from the file at boot (falling back to a fresh
// build from the input flags when the file is absent or written by an
// incompatible format version), saves it on SIGTERM/SIGINT and on POST
// /v1/snapshot/save, and with -snapshot-interval also on a timer. Every
// save writes the full image; ops applied between saves reach disk only
// through the op log of -oplog-dir (below). With -read-only the
// index rejects upserts (HTTP 403) — the replica serving mode: point
// several read-only processes at one snapshot file. A replica only
// ever reads that file: automatic saves are disabled and
// /v1/snapshot/save answers 403, so a stale replica can never clobber the
// primary's newer snapshot.
//
//	sparker-serve -generate -snapshot /var/lib/sparker/idx.snap
//	# ... kill it, restart with the same flags: no re-indexing.
//
// Replication: every sparker-serve keeps an in-memory op log (bounded
// by -oplog-retain) and serves it on GET /v1/deltas, with GET /v1/snapshot
// streaming a full bootstrap image. A replica started with -follow
// bootstraps from its leader over HTTP, serves read-only at its last
// applied sequence number, and tails the leader's delta feed; /v1/stats
// and /metrics report the replication lag. A follower that falls off
// the leader's retention window re-bootstraps automatically.
//
//	sparker-serve -generate -addr :8080                  # leader
//	sparker-serve -follow http://localhost:8080 -addr :8081
//
// Cluster mode: -shards (a comma-separated list of shard base URLs)
// turns the process into a scatter-gather coordinator instead of an
// index server. Upserts route to one shard by hash of the profile's
// original ID, queries fan out to every shard with a split budget and
// merge deterministically, and a dead shard degrades answers (the
// surviving shards' merged results, marked "degraded") rather than
// failing them. Shard health is probed via /readyz; the coordinator's
// own /readyz drains only when no shard is left. -index-shards (the
// per-process index shard count) is unrelated to cluster mode.
//
//	sparker-serve -addr :8081 &                 # shard 0
//	sparker-serve -addr :8082 &                 # shard 1
//	sparker-serve -shards http://localhost:8081,http://localhost:8082 -addr :8080
//
// Durability: with -oplog-dir every op is appended to a CRC-framed,
// rotating on-disk segment file *before* it mutates the index
// (-oplog-fsync picks the always/interval/never fsync policy,
// -oplog-segment-bytes the rotation size). After a crash — kill -9
// included — the next boot restores the newest snapshot, replays the
// log tail past it, truncates a torn or bit-flipped tail at the last
// good frame, and repopulates the in-memory delta window, so followers
// catch up over /v1/deltas without a re-bootstrap. Every snapshot save
// prunes the segments the snapshot already covers.
//
//	sparker-serve -generate -snapshot idx.snap -oplog-dir ./oplog -oplog-fsync always
//
// Overload behavior: with -max-inflight the resolution routes sit
// behind an admission gate — beyond the cap a request waits at most
// -shed-wait for a slot and is then shed with 429/503 + Retry-After,
// and admitted queries degrade under pressure (tightened budgets,
// cheaper probe policies) instead of queueing. -default-budget-ms
// bounds every query's wall clock; clients can tighten (or lift) it
// per request with ?budget_ms= / ?max_comparisons=, and budget-bound
// answers come back marked "truncated" with the stage that tripped.
// GET /healthz (liveness) and /readyz (readiness: 503 while shedding
// hard) let a load balancer drain replicas cleanly; request bodies are
// capped by -max-body (413 beyond), and header/read/write/idle
// timeouts close the slowloris hole:
//
//	sparker-serve -generate -max-inflight 64 -shed-wait 50ms -default-budget-ms 20ms
//
// Observability: GET /metrics serves the Prometheus text exposition
// (disable with -metrics=false), /v1/query?debug=1 returns a per-stage
// timing breakdown inline, -slow-query logs any query slower than the
// given duration with its full stage breakdown, and -pprof starts
// net/http/pprof on a separate address so profiling traffic never
// shares the serving listener:
//
//	sparker-serve -generate -slow-query 50ms -pprof localhost:6060
//
// All logging is structured (log/slog, text format on stderr).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparker/internal/datagen"
	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
	"sparker/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparker-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		fileA    = flag.String("a", "", "CSV file of the first clean source")
		fileB    = flag.String("b", "", "CSV file of the second clean source")
		dirty    = flag.String("dirty", "", "CSV file of a single dirty source")
		idCol    = flag.String("id", "id", "identifier column name")
		generate = flag.Bool("generate", false, "serve the generated SynthAbtBuy benchmark")

		snapshot         = flag.String("snapshot", "", "snapshot file: restore at boot, save on SIGTERM and POST /v1/snapshot/save")
		snapshotInterval = flag.Duration("snapshot-interval", 0, "also save a full snapshot periodically (0 disables)")
		readOnly         = flag.Bool("read-only", false, "replica mode: reject upserts (HTTP 403)")

		follow      = flag.String("follow", "", "replicate from this leader URL: bootstrap via GET /v1/snapshot, tail GET /v1/deltas, serve read-only")
		oplogRetain = flag.Int("oplog-retain", 0, "op frames retained in memory for /v1/deltas (0: default window)")

		oplogDir      = flag.String("oplog-dir", "", "durable op-log directory: append every op to rotating segment files before applying it, replay the tail at boot (crash-safe restart)")
		oplogFsync    = flag.String("oplog-fsync", "interval", "op-log fsync policy: always (fsync per append), interval (background flush), never (OS page cache only)")
		oplogSegBytes = flag.Int64("oplog-segment-bytes", 0, "rotate op-log segments at this size (0: default 16 MiB)")

		metrics   = flag.Bool("metrics", true, "serve the Prometheus text exposition on GET /metrics")
		pprofAddr = flag.String("pprof", "", "also serve net/http/pprof on this address (empty disables)")
		slowQuery = flag.Duration("slow-query", 0, "log queries slower than this with a per-stage breakdown (0 disables)")

		maxInFlight   = flag.Int("max-inflight", 0, "admission gate: max concurrently served /v1/query+/v1/upsert+/v1/bulk requests; beyond it requests shed with 429/503 instead of queueing (0 disables)")
		shedWait      = flag.Duration("shed-wait", 0, "how long an over-limit request may wait for an admission slot before a 503 (0: shed immediately with 429)")
		defaultBudget = flag.Duration("default-budget-ms", 0, "per-query wall-clock budget applied when the request carries no ?budget_ms= (0 = unlimited); accepts any duration, e.g. 50ms")
		maxBody       = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "max request body bytes on /v1/query, /v1/upsert and /v1/bulk (413 beyond it)")

		shardURLs   = flag.String("shards", "", "coordinator mode: comma-separated shard base URLs (e.g. http://s0:8081,http://s1:8082); scatter-gathers queries and hash-routes writes instead of serving an index")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "coordinator mode: shard /readyz health-probe cadence")
		indexShards = flag.Int("index-shards", 16, "index shard count (a restored snapshot keeps its saved count)")
		scheme      = flag.String("scheme", "CBS", "candidate weight scheme (CBS, ECBS, JS, ARCS)")
		prune       = flag.String("prune", "top-k", "candidate pruning rule (mean, top-k, none)")
		topK        = flag.Int("k", 10, "candidates kept by top-k pruning")
		measure     = flag.String("measure", "jaccard", "match measure (jaccard, dice)")
		threshold   = flag.Float64("threshold", 0.3, "match threshold (negative keeps every scored candidate)")

		filterRatio  = flag.Float64("filter-ratio", 0, "block filtering: keep this fraction of a query's smallest hit postings (0: package default; 1 disables — required for shard-count-independent answers)")
		maxBlockFrac = flag.Float64("max-block-fraction", 0, "block purging: skip postings holding more than this fraction of profiles (0: package default; 1 disables — required for shard-count-independent answers)")

		lshPolicy    = flag.String("lsh", "off", "LSH probe policy (off, fallback, union); non-off maintains MinHash signatures beside the token postings")
		lshSignature = flag.Int("lsh-signature", 128, "MinHash signature length (a restored snapshot keeps its saved parameters)")
		lshThreshold = flag.Float64("lsh-threshold", 0.5, "LSH banding target Jaccard similarity in (0, 1]")
		lshFloor     = flag.Int("lsh-floor", 1, "fallback probes when token blocking found fewer than this many candidates")
		lshWeight    = flag.String("lsh-weight", "est-jaccard", "probe-only candidate weighting (est-jaccard, buckets)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Coordinator mode is a different program: no index, no persistence,
	// just the scatter-gather front end over the listed shards. Flags
	// that configure a local index are a misconfiguration here, not a
	// silent no-op.
	if *shardURLs != "" {
		indexOnly := map[string]bool{
			"a": true, "b": true, "dirty": true, "id": true, "generate": true,
			"snapshot": true, "snapshot-interval": true, "read-only": true,
			"follow": true, "oplog-retain": true, "oplog-dir": true, "oplog-fsync": true,
			"oplog-segment-bytes": true, "index-shards": true, "scheme": true,
			"prune": true, "k": true, "measure": true, "threshold": true,
			"lsh": true, "lsh-signature": true, "lsh-threshold": true,
			"lsh-floor": true, "lsh-weight": true, "slow-query": true,
			"filter-ratio": true, "max-block-fraction": true,
		}
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			if indexOnly[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("coordinator mode (-shards) serves no local index; drop %s", strings.Join(bad, ", "))
		}
		var urls []string
		for _, u := range strings.Split(*shardURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		cluster, err := serve.NewCluster(urls, serve.ClusterOptions{
			Logger:        logger,
			MaxInFlight:   *maxInFlight,
			ShedWait:      *shedWait,
			DefaultBudget: *defaultBudget,
			MaxBodyBytes:  *maxBody,
			ProbeInterval: *probeEvery,
			NoMetrics:     !*metrics,
		})
		if err != nil {
			return err
		}
		defer cluster.Close()
		logger.Info("coordinator mode", "shards", len(urls))
		return serveUntilSignal(*addr, cluster, logger)
	}

	// Validate at the flag layer: Config treats zero as "unset", so an
	// explicit 0 here would be silently replaced by a default.
	if *indexShards <= 0 {
		return fmt.Errorf("-index-shards must be positive, got %d", *indexShards)
	}
	if *topK <= 0 {
		return fmt.Errorf("-k must be positive, got %d", *topK)
	}
	if *follow != "" {
		if err := serve.ValidateLeaderURL(*follow); err != nil {
			return err
		}
		if *fileA != "" || *fileB != "" || *dirty != "" || *generate {
			return fmt.Errorf("-follow bootstraps from the leader; drop -a/-b/-dirty/-generate")
		}
		// A follower swaps its whole index on re-bootstrap, which would
		// orphan an attached WAL mid-flight; its durability is the
		// leader's job.
		if *oplogDir != "" {
			return fmt.Errorf("-oplog-dir is a leader-side durability flag; a -follow replica replays the leader's log instead")
		}
	}
	var walCfg index.WALConfig
	if *oplogDir != "" {
		syncPolicy, err := index.ParseWALSyncPolicy(*oplogFsync)
		if err != nil {
			return err
		}
		if *oplogSegBytes < 0 {
			return fmt.Errorf("-oplog-segment-bytes must be non-negative, got %d", *oplogSegBytes)
		}
		walCfg = index.WALConfig{Dir: *oplogDir, Sync: syncPolicy, SegmentBytes: *oplogSegBytes}
	}
	// A follower never writes; -read-only covers the shared-snapshot
	// replica mode.
	isReadOnly := *readOnly || *follow != ""

	cfg := index.DefaultConfig()
	cfg.Shards = *indexShards
	// Every serving process keeps an op log: it is what /v1/deltas serves,
	// and its memory is bounded by the retention window regardless of
	// index size.
	cfg.OpLog.Enabled = true
	if *oplogRetain > 0 {
		cfg.OpLog.MaxOps = *oplogRetain
	}
	cfg.MaxCandidates = *topK
	if *filterRatio < 0 || *filterRatio > 1 {
		return fmt.Errorf("-filter-ratio must be in [0, 1], got %g", *filterRatio)
	}
	if *filterRatio > 0 {
		cfg.FilterRatio = *filterRatio
	}
	if *maxBlockFrac < 0 || *maxBlockFrac > 1 {
		return fmt.Errorf("-max-block-fraction must be in [0, 1], got %g", *maxBlockFrac)
	}
	if *maxBlockFrac > 0 {
		cfg.MaxBlockFraction = *maxBlockFrac
	}
	cfg.MatchThreshold = *threshold
	if *threshold == 0 {
		cfg.MatchThreshold = -1 // keep everything scoring >= 0, as asked
	}
	switch *scheme {
	case "CBS":
		cfg.Scheme = metablocking.CBS
	case "ECBS":
		cfg.Scheme = metablocking.ECBS
	case "JS":
		cfg.Scheme = metablocking.JS
	case "ARCS":
		cfg.Scheme = metablocking.ARCS
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	switch *prune {
	case "mean":
		cfg.Prune = index.PruneMean
	case "top-k":
		cfg.Prune = index.PruneTopK
	case "none":
		cfg.Prune = index.PruneNone
	default:
		return fmt.Errorf("unknown pruning rule %q", *prune)
	}
	switch *measure {
	case "jaccard":
		// Leave Measure nil: the index installs whole-profile Jaccard.
		// Both set measures score from token sets cached at upsert.
	case "dice":
		cfg.Measure = matching.DiceMeasure(cfg.Tokenizer)
	default:
		return fmt.Errorf("unknown measure %q", *measure)
	}
	probePolicy, err := index.ParseProbePolicy(*lshPolicy)
	if err != nil {
		return err
	}
	if probePolicy != index.ProbeOff {
		if *lshSignature <= 0 {
			return fmt.Errorf("-lsh-signature must be positive, got %d", *lshSignature)
		}
		if !(*lshThreshold > 0 && *lshThreshold <= 1) {
			return fmt.Errorf("-lsh-threshold must be in (0, 1], got %v", *lshThreshold)
		}
		if *lshFloor < 1 {
			return fmt.Errorf("-lsh-floor must be at least 1, got %d", *lshFloor)
		}
		cfg.LSH = index.LSHConfig{
			Policy:        probePolicy,
			SignatureLen:  *lshSignature,
			Threshold:     *lshThreshold,
			FallbackFloor: *lshFloor,
		}
		switch *lshWeight {
		case "est-jaccard":
			cfg.LSH.Weight = index.LSHWeightJaccard
		case "buckets":
			cfg.LSH.Weight = index.LSHWeightBuckets
		default:
			return fmt.Errorf("unknown LSH weighting %q", *lshWeight)
		}
	}

	// Restore at boot: a follower bootstraps from its leader over HTTP;
	// otherwise a present, version-compatible snapshot skips loading and
	// re-indexing the input files entirely.
	var idx *index.Index
	var follower *serve.Follower
	if *follow != "" {
		follower = serve.NewFollower(*follow, cfg, serve.FollowerOptions{Logger: logger})
		bctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		x, err := follower.Bootstrap(bctx)
		cancel()
		if err != nil {
			return err
		}
		idx = x
		logger.Info("bootstrapped from leader",
			"leader", *follow,
			"profiles", x.Size(),
			"seq", x.Seq())
	} else if *snapshot != "" {
		x, err := index.Load(*snapshot, cfg)
		switch {
		case err == nil:
			idx = x
			st, _ := x.PersistState()
			logger.Info("restored snapshot",
				"path", *snapshot,
				"profiles", x.Size(),
				"bytes", st.Bytes,
				"saved_at", st.SavedAt.Format(time.RFC3339))
		case errors.Is(err, fs.ErrNotExist), errors.Is(err, index.ErrSnapshotVersion):
			logger.Warn("snapshot unavailable, building fresh index", "path", *snapshot, "err", err)
		default:
			return err
		}
	}
	if idx == nil {
		c, err := loadCollection(*fileA, *fileB, *dirty, *idCol, *generate)
		if err != nil {
			return err
		}
		if idx, err = index.NewFromCollection(c, cfg); err != nil {
			return err
		}
		snap := idx.Snapshot()
		logger.Info("indexed collection",
			"profiles", snap.Profiles,
			"blocks", snap.Blocks,
			"shards", snap.Shards,
			"max_block_size", snap.MaxBlockSize)
	}
	if *readOnly {
		idx.SetReadOnly(true)
		logger.Info("read-only replica mode: upserts rejected")
	}

	// Attach the durable op log after the snapshot restore: recovery
	// replays only the segment tail past the restored sequence number,
	// repopulating the in-memory window so followers resume from
	// /v1/deltas without a re-bootstrap. From here every op hits disk
	// before it mutates the index.
	if *oplogDir != "" {
		rec, err := idx.OpenWAL(walCfg)
		if err != nil {
			return fmt.Errorf("op-log recovery: %w", err)
		}
		logger.Info("op log attached",
			"dir", *oplogDir,
			"fsync", walCfg.Sync.String(),
			"segments", rec.Segments,
			"replayed_ops", rec.Replayed,
			"skipped_ops", rec.SkippedOps,
			"truncated_bytes", rec.TruncatedBytes,
			"dropped_segments", rec.DroppedSegments,
			"seq", idx.Seq())
	}

	// A read-only replica consumes the snapshot file, never produces it:
	// auto-saving would overwrite a newer primary snapshot with this
	// replica's stale copy.
	save := func(reason string) {
		if *snapshot == "" || isReadOnly {
			return
		}
		start := time.Now()
		st, err := idx.Save(*snapshot)
		if err != nil {
			logger.Error("snapshot save failed", "reason", reason, "path", *snapshot, "err", err)
			return
		}
		logger.Info("saved snapshot",
			"path", st.Path,
			"bytes", st.Bytes,
			"elapsed", time.Since(start).Round(time.Millisecond),
			"reason", reason)
	}
	// One goroutine owns the save timer so shutdown can stop it and
	// wait: the final save-on-SIGTERM never races an in-flight interval
	// save, and the goroutine never outlives the graceful exit.
	var saveLoop sync.WaitGroup
	stopSaves := make(chan struct{})
	if *snapshotInterval > 0 && *snapshot != "" && !isReadOnly {
		saveLoop.Add(1)
		go func() {
			defer saveLoop.Done()
			t := time.NewTicker(*snapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					save("interval")
				case <-stopSaves:
					return
				}
			}
		}()
	}

	// The pprof handlers live on their own mux and address so profiling
	// traffic (and its unauthenticated endpoints) never shares the
	// serving listener.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	// The handler itself refuses /v1/snapshot/save on a read-only index
	// (403), so the path can be passed through unconditionally.
	handler := serve.NewHandlerOptions(idx, serve.Options{
		SnapshotPath:  *snapshot,
		Logger:        logger,
		SlowQuery:     *slowQuery,
		NoMetrics:     !*metrics,
		MaxInFlight:   *maxInFlight,
		ShedWait:      *shedWait,
		DefaultBudget: *defaultBudget,
		MaxBodyBytes:  *maxBody,
		Follower:      follower,
	})
	if *maxInFlight > 0 {
		logger.Info("admission control on",
			"max_inflight", *maxInFlight,
			"shed_wait", shedWait.String(),
			"default_budget", defaultBudget.String())
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	if follower != nil {
		go func() { _ = follower.Run(runCtx, handler) }()
		logger.Info("following leader", "leader", *follow)
	}
	if err := serveUntilSignal(*addr, handler, logger); err != nil {
		return err
	}
	cancelRun()
	// Stop the timed saves and wait the loop out: the final save below
	// must not race an in-flight interval save.
	close(stopSaves)
	saveLoop.Wait()
	save("shutdown")
	// After the final save so a full snapshot prunes now-covered
	// segments; close syncs whatever the flush policy left pending.
	if idx.WALEnabled() {
		if err := idx.CloseWAL(); err != nil {
			logger.Error("op log close failed", "err", err)
		}
	}
	return nil
}

// serveUntilSignal serves h on addr until SIGINT/SIGTERM, then drains
// in-flight requests (for at most 10s). It returns the listener's
// error, or nil after a signal-driven shutdown. The server-level
// timeouts close the slowloris hole: a client that trickles headers or
// never reads its response is cut off instead of holding a connection
// (and, with admission on, a slot) forever.
func serveUntilSignal(addr string, h http.Handler, logger *slog.Logger) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", addr)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		return nil
	}
}

// loadCollection assembles the startup collection from the flags; with no
// inputs it serves an empty clean-clean index ready for /v1/bulk loads.
func loadCollection(fileA, fileB, dirty, idCol string, generate bool) (*profile.Collection, error) {
	switch {
	case generate:
		return datagen.Generate(datagen.AbtBuy()).Collection, nil
	case dirty != "":
		ps, err := loader.ReadProfilesCSVFile(dirty, idCol)
		if err != nil {
			return nil, err
		}
		return profile.NewDirty(ps), nil
	case fileA != "" && fileB != "":
		a, err := loader.ReadProfilesCSVFile(fileA, idCol)
		if err != nil {
			return nil, err
		}
		b, err := loader.ReadProfilesCSVFile(fileB, idCol)
		if err != nil {
			return nil, err
		}
		return profile.NewCleanClean(a, b), nil
	case fileA == "" && fileB == "":
		return profile.NewCleanClean(nil, nil), nil
	}
	return nil, fmt.Errorf("need both -a and -b (or -dirty, or -generate)")
}
