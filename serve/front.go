package serve

// The HTTP front end: the one place the serving tier's HTTP concerns
// live, shared by the single node (Handler, over a local index) and
// the shard coordinator (Cluster, over a fan-out to shard processes) —
// the serving counterpart of SparkER keeping one pipeline interface
// over its sequential and distributed implementations. The front end
// owns the instrumented route table, the admission gate and the
// degradation ladder, the bounded body reader and knob parsing, the
// JSON writer and error envelope, /healthz, and the shared halves of
// /readyz, /v1/stats and /metrics. A backend answers only what truly
// differs: how a query, an upsert and a bulk load are served, plus its
// own readiness, stats and metric families.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"sparker/internal/obs"
)

// DefaultMaxBodyBytes caps /v1/query, /v1/upsert and /v1/bulk request
// bodies when no cap is configured: large enough for generous bulk
// loads, small enough that one request can never balloon the heap.
const DefaultMaxBodyBytes int64 = 32 << 20

// backend is what the front end serves over: a local index (Handler)
// or a fan-out over shards (Cluster).
type backend interface {
	// prepare validates the knobs against what the backend serves and
	// folds the backend's own defaults in (a local index's probe
	// policy), so the ladder tightens the knobs the query really runs
	// with.
	prepare(p *QueryParams) error
	// query answers one JSON profile under knobs already past the
	// ladder; level is the admission level the query was served at.
	query(ctx context.Context, body []byte, p QueryParams, level int) (queryResult, error)
	// upsert applies one JSON profile, bulk a JSON-lines load.
	upsert(ctx context.Context, body []byte, p QueryParams) (any, error)
	bulk(ctx context.Context, body []byte, p QueryParams) (any, error)
	// stats returns the /v1/stats body around the shared section.
	stats(shared frontStats) any
	// ready is the backend's half of /readyz: ok with the 200 body, or
	// not ok with the 503 body.
	ready() (body map[string]any, ok bool)
	// writeMetrics renders the backend's own /metrics families.
	writeMetrics(e *obs.Expo)
}

// queryResult is a backend's query answer plus what the front end's
// budget accounting reads from it.
type queryResult struct {
	body        any
	truncated   bool
	comparisons int
}

// frontConfig is the part of Options and ClusterOptions the front end
// consumes.
type frontConfig struct {
	maxInFlight   int
	shedWait      time.Duration
	defaultBudget time.Duration
	maxBody       int64
	noMetrics     bool
}

// frontEnd is the HTTP surface over a backend.
type frontEnd struct {
	router
	be            backend
	gate          *admission
	maxBody       int64
	defaultBudget time.Duration
	// retryAfter is the Retry-After value (whole seconds) of every shed
	// and not-ready response, derived from the shed wait: a client told
	// to come back should wait at least as long as the server itself
	// would have let it wait for a slot.
	retryAfter int64

	// Budget/degradation accounting, exposed by /v1/stats and /metrics.
	degraded    obs.Counter   // queries served at a non-zero ladder level
	truncated   obs.Counter   // answers whose budget tripped
	budgetSpent obs.Histogram // comparisons spent per budgeted query
}

// init wires the front end over be and registers the shared routes;
// the resolution routes sit behind the admission gate.
func (f *frontEnd) init(be backend, cfg frontConfig) {
	f.be = be
	f.gate = newAdmission(cfg.maxInFlight, cfg.shedWait)
	f.maxBody = cfg.maxBody
	if f.maxBody <= 0 {
		f.maxBody = DefaultMaxBodyBytes
	}
	f.defaultBudget = cfg.defaultBudget
	f.retryAfter = retryAfterSeconds(cfg.shedWait)
	f.router.init()
	f.handle("/v1/query", f.gated(only(http.MethodPost, f.serveQuery)))
	f.handle("/v1/upsert", f.gated(only(http.MethodPost, f.serveWrite(be.upsert))))
	f.handle("/v1/bulk", f.gated(only(http.MethodPost, f.serveWrite(be.bulk))))
	f.handle("/v1/stats", only(http.MethodGet, f.serveStats))
	f.handle("/healthz", only(http.MethodGet, serveHealthz))
	f.handle("/readyz", only(http.MethodGet, f.serveReadyz))
	if !cfg.noMetrics {
		f.handle("/metrics", only(http.MethodGet, f.serveMetrics))
	}
}

// retryAfterSeconds renders a shed wait as a whole-second Retry-After
// value, rounding up so clients never come back before a slot could
// have opened; the floor of 1 keeps the header meaningful when no wait
// is configured.
func retryAfterSeconds(wait time.Duration) int64 {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// only restricts a route to one HTTP method (405 otherwise).
func only(method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, newAPIError(http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, fmt.Errorf("use %s", method)))
			return
		}
		fn(w, r)
	}
}

// errOverloaded is the shed response message: what a client sees when
// the admission gate refuses its request.
var errOverloaded = errors.New("server overloaded, retry later")

// gated wraps a handler behind the admission gate: over-limit requests
// shed with 429/503 + Retry-After instead of queueing, and the
// admission level rides in the request context for the ladder.
func (f *frontEnd) gated(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, level, status := f.gate.acquire(r.Context())
		if status != 0 {
			shed := newAPIError(status, ErrCodeOverloaded, errOverloaded)
			shed.Err.RetryAfterSeconds = f.retryAfter
			writeError(w, shed)
			return
		}
		defer release()
		fn(w, r.WithContext(context.WithValue(r.Context(), admissionLevelKey{}, level)))
	}
}

// readPost decodes the request knobs and reads the body, bounded by the
// configured cap — one huge upload answers 413, it does not balloon the
// heap. It answers the 4xx itself and reports whether to go on.
func (f *frontEnd) readPost(w http.ResponseWriter, r *http.Request) (QueryParams, []byte, bool) {
	params, err := ParseQueryParams(r.URL.Query())
	if err != nil {
		writeError(w, badRequest(err))
		return params, nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			err = newAPIError(http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes (split the upload or raise -max-body)", tooBig.Limit))
		} else {
			err = badRequest(err)
		}
		writeError(w, err)
		return params, nil, false
	}
	return params, body, true
}

// serveQuery is POST /v1/query. The server's default budget and the
// backend's defaults are folded into the knobs before the degradation
// ladder runs, so under gate pressure a query is only ever tightened
// relative to what it would have run with on an idle server — cheaper
// truncated answers instead of queueing delay.
func (f *frontEnd) serveQuery(w http.ResponseWriter, r *http.Request) {
	params, body, ok := f.readPost(w, r)
	if !ok {
		return
	}
	if !params.BudgetSet && f.defaultBudget > 0 {
		params.setBudget(f.defaultBudget)
	}
	if err := f.be.prepare(&params); err != nil {
		writeError(w, badRequest(err))
		return
	}
	level := admissionLevel(r)
	degrade(&params, level)
	res, err := f.be.query(r.Context(), body, params, level)
	if err != nil {
		writeError(w, err)
		return
	}
	if level > 0 {
		f.degraded.Inc()
	}
	if res.truncated {
		f.truncated.Inc()
	}
	if params.BudgetMS > 0 || params.MaxComparisons > 0 {
		f.budgetSpent.Observe(int64(res.comparisons))
	}
	writeJSON(w, http.StatusOK, res.body)
}

// serveWrite is POST /v1/upsert and /v1/bulk over the backend's write.
func (f *frontEnd) serveWrite(write func(context.Context, []byte, QueryParams) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		params, body, ok := f.readPost(w, r)
		if !ok {
			return
		}
		resp, err := write(r.Context(), body, params)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// frontStats is the /v1/stats section every backend's body carries:
// the per-route HTTP counters and the admission/budget accounting.
type frontStats struct {
	HTTP      []routeStatsJSON   `json:"http"`
	Admission admissionStatsJSON `json:"admission"`
}

// admissionStatsJSON is the /v1/stats digest of the admission gate and
// the budget/degradation counters — what an operator reads to tell
// "loaded but coping" (degraded/truncated climbing) from "refusing
// work" (shed counters climbing).
type admissionStatsJSON struct {
	// MaxInFlight is the configured gate capacity (0 = admission off).
	MaxInFlight int `json:"max_inflight"`
	InFlight    int `json:"in_flight"`
	Waiting     int `json:"waiting"`
	// ShedFull counts requests shed immediately (429, no wait
	// configured); ShedTimeout counts requests shed after the bounded
	// wait expired or the client gave up (503).
	ShedFull    int64 `json:"shed_full"`
	ShedTimeout int64 `json:"shed_timeout"`
	// Degraded counts queries served at a non-zero ladder level and
	// Truncated responses whose budget tripped mid-resolution.
	Degraded  int64 `json:"degraded_queries"`
	Truncated int64 `json:"truncated_queries"`
}

func (f *frontEnd) admissionStats() admissionStatsJSON {
	s := admissionStatsJSON{
		MaxInFlight: f.gate.capacity(),
		InFlight:    f.gate.inFlight(),
		Degraded:    f.degraded.Load(),
		Truncated:   f.truncated.Load(),
	}
	if f.gate != nil {
		s.Waiting = int(f.gate.waiting.Load())
		s.ShedFull = f.gate.shedFull.Load()
		s.ShedTimeout = f.gate.shedTimeout.Load()
	}
	return s
}

// serveStats is GET /v1/stats: the backend's body around the shared
// section.
func (f *frontEnd) serveStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.be.stats(frontStats{HTTP: f.routeStats(), Admission: f.admissionStats()}))
}

// serveHealthz is liveness: the process is up and the handler answers.
func serveHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// serveReadyz is readiness: the backend can answer and the admission
// gate is not saturated. A load balancer drains a replica answering
// 503 here while /healthz keeps it alive — shedding hard is a reason to
// stop sending traffic, not to restart the process. The 503 carries the
// same Retry-After a shed response does, and its body stays
// status-shaped (not the error envelope): readiness probes report
// state, they do not fail requests.
func (f *frontEnd) serveReadyz(w http.ResponseWriter, r *http.Request) {
	body, ok := f.be.ready()
	if ok && f.gate.saturated() {
		body, ok = map[string]any{"status": "shedding", "in_flight": f.gate.inFlight()}, false
	}
	status := http.StatusOK
	if !ok {
		w.Header().Set("Retry-After", strconv.FormatInt(f.retryAfter, 10))
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// serveMetrics is GET /metrics: the backend's families, then the
// admission, budget and per-route HTTP families every front end shares.
// The overload dashboards alert on shed and degraded rates long before
// latency histograms drift.
func (f *frontEnd) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewExpo(w)
	f.be.writeMetrics(e)

	adm := f.admissionStats()
	e.Gauge("sparker_admission_max_in_flight", "Configured admission gate capacity (0 = admission off).", float64(adm.MaxInFlight))
	e.Gauge("sparker_admission_in_flight", "Requests currently admitted through the gate.", float64(adm.InFlight))
	e.Gauge("sparker_admission_waiting", "Requests waiting for an admission slot.", float64(adm.Waiting))
	e.Counter("sparker_admission_shed_total", "Requests shed by the admission gate.", float64(adm.ShedFull),
		obs.Label{Name: "reason", Value: "full"})
	e.Counter("sparker_admission_shed_total", "Requests shed by the admission gate.", float64(adm.ShedTimeout),
		obs.Label{Name: "reason", Value: "timeout"})
	e.Counter("sparker_queries_degraded_total", "Queries served at a non-zero degradation level.", float64(adm.Degraded))
	e.Counter("sparker_queries_truncated_total", "Query responses truncated by a per-request budget.", float64(adm.Truncated))
	e.Histogram("sparker_query_budget_spent_comparisons", "Comparisons spent per budgeted query.", f.budgetSpent.Snapshot(), 1)

	f.writeHTTPMetrics(e)
	_ = e.Flush()
}

// writeJSON is the one response encoder: compact JSON under the given
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers err as the typed error envelope: an *APIError
// keeps its status and code (and sets Retry-After when it carries
// one), any other error is a 500.
func writeError(w http.ResponseWriter, err error) {
	var e *APIError
	if !errors.As(err, &e) || e.status == 0 {
		e = newAPIError(http.StatusInternalServerError, ErrCodeInternal, err)
	}
	if e.Err.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(e.Err.RetryAfterSeconds, 10))
	}
	writeJSON(w, e.status, e)
}
