// Package serve exposes the online entity index over HTTP — the handler
// behind the sparker-serve command. It lives outside the root sparker
// package and outside internal/index so that batch-only consumers of the
// library do not link the HTTP stack.
//
// One front end (front.go) serves two backends: Handler, a single node
// over a local index, and Cluster, a coordinator fanning out to shard
// processes. Both speak the same /v1 API through the same route table,
// admission gate, degradation ladder, body reader and JSON writer.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/obs"
	"sparker/internal/profile"
)

// Options configures the optional persistence, observability and
// admission-control surfaces of the handler.
type Options struct {
	// SnapshotPath enables POST /v1/snapshot/save: each call writes a
	// durable snapshot of the index there (atomically). Empty disables
	// the endpoint.
	SnapshotPath string
	// Logger receives the slow-query log (structured, slog). Nil uses
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery logs any /v1/query resolution taking at least this
	// long, with its per-stage timing breakdown — the first question to
	// ask of a slow resolver is which stage ate the time. Zero disables
	// the slow-query log.
	SlowQuery time.Duration
	// NoMetrics disables GET /metrics (enabled by default).
	NoMetrics bool

	// MaxInFlight caps concurrently served requests on the resolution
	// routes (/v1/query, /v1/upsert, /v1/bulk). Beyond the cap,
	// requests wait at most ShedWait and are then shed with 429/503 +
	// Retry-After instead of queueing; admitted queries degrade by gate
	// occupancy (see admission.go). Zero disables admission control
	// entirely.
	MaxInFlight int
	// ShedWait bounds how long an over-limit request waits for a slot
	// (also bounded by the request's own context). Zero sheds
	// immediately with 429; with a wait, expiry sheds with 503.
	ShedWait time.Duration
	// DefaultBudget is the wall-clock budget applied to /v1/query
	// requests that do not carry ?budget_ms= themselves. Zero means
	// unlimited (until the degradation ladder imposes one under
	// pressure).
	DefaultBudget time.Duration
	// MaxBodyBytes caps request bodies on /v1/query, /v1/upsert and
	// /v1/bulk (413 beyond it). Zero uses DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// Follower, when non-nil, is the replication loop feeding this
	// handler's index from a leader (see replication.go). The handler
	// reports its lag in /v1/stats and /metrics, and /readyz holds the
	// replica out of rotation until the follower has bootstrapped.
	Follower *Follower
}

// NewHandler serves an index over HTTP. Every API route lives under
// the versioned /v1/ prefix:
//
//	POST /v1/query         — body: one JSON profile {"id": "...",
//	                      "attr": "value"}; ranks candidates and scores
//	                      matches. ?source=1 marks the query as coming
//	                      from the second clean source.
//	                      ?probe=off|fallback|union overrides the
//	                      index's LSH probe policy for this query and
//	                      ?probe_floor=N the fallback floor (both need
//	                      an LSH-enabled index; see IndexConfig.LSH and
//	                      sparker-serve -lsh). ?debug=1 adds a
//	                      per-stage timing breakdown of this query to
//	                      the response. ?budget_ms= and
//	                      ?max_comparisons= bound this query's work
//	                      (wall-clock / scored candidates); a tripped
//	                      budget returns the best-first prefix with
//	                      "truncated": true and the tripping stage.
//	                      The knob set is typed: see QueryParams.
//	POST /v1/upsert        — body: one JSON profile; inserts or
//	                      replaces it.
//	POST /v1/bulk          — body: JSON-lines profiles; upserts every
//	                      record.
//	POST /v1/snapshot/save — write a durable snapshot (needs a
//	                      configured snapshot path; see
//	                      NewHandlerOptions).
//	GET  /v1/stats         — consistent index snapshot, including
//	                      read-only mode, durable-snapshot metadata,
//	                      per-stage timing digests, per-route HTTP
//	                      counters and admission/budget accounting.
//	GET  /v1/deltas        — replication feed: the op frames applied
//	                      after ?since=<seq>, long-polling up to
//	                      ?wait_ms= when caught up (see
//	                      replication.go). Needs an op-log-enabled
//	                      index.
//	GET  /v1/snapshot      — streams a full binary snapshot of the
//	                      index, the follower bootstrap (and resync)
//	                      source.
//	GET  /metrics       — Prometheus text exposition of the same
//	                      telemetry (per-stage latency histograms,
//	                      request/error counters, LSH probe rates,
//	                      shed/degraded/truncated counters).
//	GET  /healthz       — liveness: 200 while the process serves.
//	GET  /readyz        — readiness: 200 while the index holds data and
//	                      the admission gate is not saturated; 503 tells
//	                      a load balancer to drain this replica. A
//	                      read-only replica that has not yet loaded a
//	                      snapshot (or applied a delta) answers 503 so
//	                      traffic never routes to an empty follower.
//
// /metrics, /healthz and /readyz stay unversioned: they are operator
// conventions (scrapers and load balancers), not API surfaces. Any
// other path — the pre-/v1 unversioned /query, /upsert, /stats and
// friends included — answers 404 with the not_found envelope.
//
// Every 4xx/5xx response carries the typed JSON error envelope
// {"error": {"code", "message", "retry_after_seconds?"}} — see
// APIError and the ErrCode* constants.
//
// With Options.MaxInFlight set, /v1/query, /v1/upsert and /v1/bulk sit
// behind an admission gate: over-limit requests wait at most
// Options.ShedWait and are then shed with 429/503 + Retry-After, and
// admitted queries degrade under pressure (tightened budget, cheaper
// probe policy) — see admission.go for the ladder. Request bodies on
// those routes are bounded by Options.MaxBodyBytes (413 beyond it).
//
// Every route is instrumented: request, 4xx and 5xx counters plus a
// latency histogram per route, surfaced by both /v1/stats and
// /metrics. Upserts against a read-only replica fail with 403.
// Profiles use the loader's JSON-lines wire format; the "id" field is
// the original identifier, every other field an attribute.
func NewHandler(x *index.Index) *Handler { return NewHandlerOptions(x, Options{}) }

// NewHandlerOptions is NewHandler with the persistence, observability,
// admission and replication surfaces configured.
func NewHandlerOptions(x *index.Index, opts Options) *Handler {
	h := &Handler{opts: opts, logger: opts.Logger, follower: opts.Follower}
	h.idx.Store(x)
	if h.logger == nil {
		h.logger = slog.Default()
	}
	h.init(h, frontConfig{
		maxInFlight:   opts.MaxInFlight,
		shedWait:      opts.ShedWait,
		defaultBudget: opts.DefaultBudget,
		maxBody:       opts.MaxBodyBytes,
		noMetrics:     opts.NoMetrics,
	})
	h.handle("/v1/snapshot/save", only(http.MethodPost, h.snapshotSave))
	h.handle("/v1/snapshot", only(http.MethodGet, h.snapshotStream))
	h.handle("/v1/deltas", only(http.MethodGet, h.deltas))
	return h
}

// Handler serves an index over HTTP (see NewHandler for the routes):
// the front end over the local backend. It holds the index behind an
// atomic pointer so a follower resync can swap in a freshly
// bootstrapped index without a lock on the request path: each request
// pins one index for its whole duration and the old one drains
// naturally.
type Handler struct {
	frontEnd
	idx      atomic.Pointer[index.Index]
	opts     Options
	logger   *slog.Logger
	follower *Follower
}

// Index returns the handler's current index.
func (h *Handler) Index() *index.Index { return h.idx.Load() }

// SetIndex atomically swaps the served index — the follower resync
// path: in-flight requests finish on the index they started with.
func (h *Handler) SetIndex(x *index.Index) { h.idx.Store(x) }

// prepare validates the probe knobs against the index (explicitly
// requesting a probe on an index without LSH is a client error, not a
// silent no-op) and folds the index's probe policy in, so the ladder
// downgrades the policy the query would really run.
func (h *Handler) prepare(p *QueryParams) error {
	x := h.Index()
	if !x.LSHEnabled() {
		if p.Probe != "" && p.Probe != index.ProbeOff.String() {
			return fmt.Errorf("probe=%s needs an LSH-enabled index (start sparker-serve with -lsh)", p.Probe)
		}
		if p.ProbeFloor > 0 {
			return fmt.Errorf("probe_floor needs an LSH-enabled index (start sparker-serve with -lsh)")
		}
	}
	if p.Probe == "" {
		p.Probe = x.ProbePolicy().String()
	}
	return nil
}

func (h *Handler) query(_ context.Context, body []byte, params QueryParams, level int) (queryResult, error) {
	x := h.Index()
	p, err := oneProfile(x, body, params)
	if err != nil {
		return queryResult{}, err
	}
	start := obs.Now()
	res := x.ResolveWithOptions(p, params.resolveOptions())
	elapsed := obs.Now() - start
	if h.opts.SlowQuery > 0 && elapsed >= int64(h.opts.SlowQuery) {
		h.logSlowQuery(p, res, elapsed)
	}
	resp := newQueryResponse(x, res)
	resp.Degraded = level
	if params.Debug {
		resp.Debug = newDebugJSON(res)
	}
	return queryResult{body: resp, truncated: res.Query.Truncated, comparisons: res.Comparisons}, nil
}

func (h *Handler) upsert(_ context.Context, body []byte, params QueryParams) (any, error) {
	x := h.Index()
	p, err := oneProfile(x, body, params)
	if err != nil {
		return nil, err
	}
	id, created, err := x.Upsert(*p)
	if err != nil {
		return nil, upsertError(err)
	}
	return upsertResponse{ID: id, Created: created}, nil
}

func (h *Handler) bulk(_ context.Context, body []byte, params QueryParams) (any, error) {
	x := h.Index()
	ps, err := readProfiles(x, body, params)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if _, _, err := x.Upsert(p); err != nil {
			return nil, upsertError(err)
		}
	}
	return bulkResponse{Upserted: len(ps)}, nil
}

// ready holds a read-only replica that has never loaded a snapshot
// (and whose follower has not bootstrapped) out of rotation as "empty":
// routing traffic to it would serve zero-candidate answers that look
// like successes.
func (h *Handler) ready() (map[string]any, bool) {
	if x := h.Index(); x.ReadOnly() && !x.Restored() && x.Size() == 0 && (h.follower == nil || !h.follower.Ready()) {
		return map[string]any{"status": "empty", "read_only": true}, false
	}
	return map[string]any{"status": "ok"}, true
}

func (h *Handler) snapshotSave(w http.ResponseWriter, r *http.Request) {
	if h.opts.SnapshotPath == "" {
		writeError(w, newAPIError(http.StatusNotFound, ErrCodeNotFound, fmt.Errorf("no snapshot path configured (start sparker-serve with -snapshot)")))
		return
	}
	// A replica consumes the snapshot file, never produces it — a
	// stale replica must not clobber the primary's newer snapshot.
	// Enforced here too, not only in sparker-serve's flag wiring, so
	// embedders of the handler get the same invariant.
	x := h.Index()
	if x.ReadOnly() {
		writeError(w, newAPIError(http.StatusForbidden, ErrCodeReadOnly, fmt.Errorf("read-only replica does not write snapshots")))
		return
	}
	start := time.Now()
	st, err := x.Save(h.opts.SnapshotPath)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":       st.Path,
		"bytes":      st.Bytes,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// statsResponse is the single node's /v1/stats body: the index
// snapshot (its fields inline, exactly the pre-observability shape)
// plus the front end's per-route HTTP counters and admission/budget
// accounting.
type statsResponse struct {
	index.Snapshot
	frontStats
	Replication *ReplicationStats `json:"replication,omitempty"`
}

func (h *Handler) stats(shared frontStats) any {
	resp := statsResponse{Snapshot: h.Index().Snapshot(), frontStats: shared}
	if h.follower != nil {
		st := h.follower.Stats()
		resp.Replication = &st
	}
	return resp
}

// logSlowQuery emits one structured slow-query record with the
// per-stage breakdown — enough to see where the time went without
// re-running the query.
func (h *Handler) logSlowQuery(p *profile.Profile, res *index.Resolution, elapsedNanos int64) {
	attrs := make([]any, 0, 2*index.NumStages+14)
	attrs = append(attrs,
		slog.String("original_id", p.OriginalID),
		slog.Float64("elapsed_ms", float64(elapsedNanos)/1e6),
	)
	for s := 0; s < index.NumStages; s++ {
		attrs = append(attrs, slog.Float64(index.Stage(s).String()+"_ms", float64(res.Query.StageNanos[s])/1e6))
	}
	attrs = append(attrs,
		slog.Int("keys", res.Query.Keys),
		slog.Int("postings_scanned", res.Query.PostingsScanned),
		slog.Int("candidates", len(res.Query.Candidates)),
		slog.Int("comparisons", res.Comparisons),
		slog.Int("matches", len(res.Matches)),
		slog.Bool("lsh_probed", res.Query.LSHProbed),
	)
	h.logger.Warn("slow query", attrs...)
}

// upsertError maps an index write error onto the envelope: writes
// against a read-only replica are refused, not malformed.
func upsertError(err error) *APIError {
	if errors.Is(err, index.ErrReadOnly) {
		return newAPIError(http.StatusForbidden, ErrCodeReadOnly, err)
	}
	return badRequest(err)
}

// upsertResponse and bulkResponse are the typed write acknowledgements.
type upsertResponse struct {
	ID      profile.ID `json:"id"`
	Created bool       `json:"created"`
}

type bulkResponse struct {
	Upserted int `json:"upserted"`
}

// candidateJSON is one ranked blocking candidate on the wire.
type candidateJSON struct {
	ID            profile.ID `json:"id"`
	OriginalID    string     `json:"original_id"`
	Source        int        `json:"source"`
	Weight        float64    `json:"weight"`
	SharedKeys    int        `json:"shared_keys"`
	SharedBuckets int        `json:"shared_buckets,omitempty"`
}

// matchJSON is one scored match on the wire.
type matchJSON struct {
	ID         profile.ID `json:"id"`
	OriginalID string     `json:"original_id"`
	Source     int        `json:"source"`
	Score      float64    `json:"score"`
}

// stageNanosJSON is one row of the ?debug=1 breakdown.
type stageNanosJSON struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// debugJSON is the ?debug=1 payload: where this query's time went,
// stage by stage.
type debugJSON struct {
	Stages     []stageNanosJSON `json:"stages"`
	TotalNanos int64            `json:"total_nanos"`
}

func newDebugJSON(r *index.Resolution) *debugJSON {
	d := &debugJSON{Stages: make([]stageNanosJSON, 0, index.NumStages)}
	for s := 0; s < index.NumStages; s++ {
		n := r.Query.StageNanos[s]
		d.Stages = append(d.Stages, stageNanosJSON{Stage: index.Stage(s).String(), Nanos: n})
		d.TotalNanos += n
	}
	return d
}

// queryResponse carries a resolution plus its probe accounting.
type queryResponse struct {
	Candidates      []candidateJSON `json:"candidates"`
	Matches         []matchJSON     `json:"matches"`
	Keys            int             `json:"keys"`
	BlocksProbed    int             `json:"blocks_probed"`
	BlocksPurged    int             `json:"blocks_purged"`
	BlocksFiltered  int             `json:"blocks_filtered"`
	PostingsScanned int             `json:"postings_scanned"`
	Pruned          int             `json:"pruned"`
	Comparisons     int             `json:"comparisons"`
	// LSH probe accounting, present only when a probe ran.
	LSHProbed     bool `json:"lsh_probed,omitempty"`
	BucketsProbed int  `json:"buckets_probed,omitempty"`
	BucketsPurged int  `json:"buckets_purged,omitempty"`
	LSHCandidates int  `json:"lsh_candidates,omitempty"`
	// Truncated marks a budget-bound answer: the best-first prefix the
	// per-request budget allowed, with the stage that tripped it.
	Truncated      bool   `json:"truncated,omitempty"`
	TruncatedStage string `json:"truncated_stage,omitempty"`
	// Degraded is the admission ladder level this query was served at
	// (0 = healthy, omitted; 1..3 = tightened budget/probe policy).
	Degraded int `json:"degraded,omitempty"`
	// Debug is the per-stage timing breakdown, present only with
	// ?debug=1.
	Debug *debugJSON `json:"debug,omitempty"`
}

func newQueryResponse(x *index.Index, r *index.Resolution) queryResponse {
	resp := queryResponse{
		Candidates:      make([]candidateJSON, 0, len(r.Query.Candidates)),
		Matches:         make([]matchJSON, 0, len(r.Matches)),
		Keys:            r.Query.Keys,
		BlocksProbed:    r.Query.BlocksProbed,
		BlocksPurged:    r.Query.BlocksPurged,
		BlocksFiltered:  r.Query.BlocksFiltered,
		PostingsScanned: r.Query.PostingsScanned,
		Pruned:          r.Query.Pruned,
		Comparisons:     r.Comparisons,
		LSHProbed:       r.Query.LSHProbed,
		BucketsProbed:   r.Query.BucketsProbed,
		BucketsPurged:   r.Query.BucketsPurged,
		LSHCandidates:   r.Query.LSHCandidates,
		Truncated:       r.Query.Truncated,
		TruncatedStage:  r.Query.TruncatedStage,
	}
	for _, c := range r.Query.Candidates {
		cj := candidateJSON{ID: c.ID, Weight: c.Weight, SharedKeys: c.SharedKeys, SharedBuckets: c.SharedBuckets}
		if orig, src, ok := x.Meta(c.ID); ok {
			cj.OriginalID = orig
			cj.Source = src
		}
		resp.Candidates = append(resp.Candidates, cj)
	}
	for _, m := range r.Matches {
		mj := matchJSON{ID: m.B, Score: m.Score}
		if orig, src, ok := x.Meta(m.B); ok {
			mj.OriginalID = orig
			mj.Source = src
		}
		resp.Matches = append(resp.Matches, mj)
	}
	return resp
}

// oneProfile parses exactly one JSON profile from a request body.
func oneProfile(x *index.Index, body []byte, params QueryParams) (*profile.Profile, error) {
	ps, err := readProfiles(x, body, params)
	if err != nil {
		return nil, err
	}
	if len(ps) != 1 {
		return nil, badRequest(fmt.Errorf("expected one profile, got %d", len(ps)))
	}
	return &ps[0], nil
}

// readProfiles parses a JSON-lines request body, applying the decoded
// ?source knob.
func readProfiles(x *index.Index, body []byte, params QueryParams) ([]profile.Profile, error) {
	ps, err := loader.ReadProfilesJSONL(bytes.NewReader(body), "id")
	if err != nil {
		return nil, badRequest(err)
	}
	if params.SourceSet && params.Source == 1 && !x.Clean() {
		return nil, badRequest(fmt.Errorf("source=1 needs a clean-clean index"))
	}
	for i := range ps {
		ps[i].SourceID = params.Source
	}
	return ps, nil
}
